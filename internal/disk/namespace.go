package disk

import (
	"fmt"
	"strings"
)

// ValidNamespace reports whether ns is usable as a namespace (or namespace
// path, with "/" separators): every segment must be non-empty, must not be
// "." or "..", and may contain only ASCII letters, digits, '.', '_' and
// '-'. The rules keep namespaced names portable across backends — on the
// file backend a namespace maps to a subdirectory chain, on the mem backend
// it is a plain key prefix.
func ValidNamespace(ns string) error {
	if ns == "" {
		return fmt.Errorf("disk: empty namespace")
	}
	for _, seg := range strings.Split(ns, "/") {
		if seg == "" {
			return fmt.Errorf("disk: namespace %q has an empty segment", ns)
		}
		if seg == "." || seg == ".." {
			return fmt.Errorf("disk: namespace %q has a relative segment", ns)
		}
		for _, r := range seg {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
				r == '.' || r == '_' || r == '-') {
				return fmt.Errorf("disk: namespace %q has invalid character %q", ns, r)
			}
		}
	}
	return nil
}

// Namespace returns a view of the same device whose file and metadata names
// all live under ns (e.g. ns "streams/api.latency" maps "part-000001.dat"
// to "streams/api.latency/part-000001.dat" on the backend). The view shares
// the device's backend, block geometry, block-cache budget, latency profile
// and fault hook with every other view, and contributes to the root view's
// aggregate Stats while keeping its own per-view Stats — the mechanism that
// lets many independent quantile streams multiplex one physical warehouse.
//
// Namespacing composes: calling Namespace on a namespaced view nests the
// prefixes.
func (m *Manager) Namespace(ns string) (*Manager, error) {
	if err := ValidNamespace(ns); err != nil {
		return nil, err
	}
	return newView(m.dev, m.prefix+ns+"/", &ioCounters{}, &ioCounters{}, false), nil
}
