package query

import (
	"fmt"
	"path"
	"strings"
)

// Stream names form a '.'-separated hierarchy (names cannot contain '/',
// see hsq.ValidStreamName), so the query layer's patterns are segment
// globs: "api.*.latency" selects every region's latency stream,
// "api.**" selects the whole api subtree.
//
// Pattern language, per '.'-separated segment:
//
//   - a literal segment matches itself;
//   - '*', '?' and '[...]' match within one segment (path.Match syntax,
//     which never crosses the separator because segments are matched
//     individually);
//   - a final "**" segment matches any number of trailing segments,
//     including none.
//
// A pattern without "**" only matches names with exactly as many segments
// as the pattern.

// ValidatePattern checks the glob's syntax so plans fail at parse time,
// not per candidate name at evaluation time.
func ValidatePattern(pattern string) error {
	if pattern == "" {
		return fmt.Errorf("query: empty match pattern")
	}
	segs := strings.Split(pattern, ".")
	for i, seg := range segs {
		if seg == "**" {
			if i != len(segs)-1 {
				return fmt.Errorf("query: pattern %q: \"**\" is only valid as the final segment", pattern)
			}
			continue
		}
		if seg == "" {
			return fmt.Errorf("query: pattern %q has an empty segment", pattern)
		}
		if _, err := path.Match(seg, "x"); err != nil {
			return fmt.Errorf("query: pattern %q segment %q: %w", pattern, seg, err)
		}
	}
	return nil
}

// MatchStream reports whether the stream name matches the segment glob.
func MatchStream(pattern, name string) (bool, error) {
	psegs := strings.Split(pattern, ".")
	nsegs := strings.Split(name, ".")
	deep := psegs[len(psegs)-1] == "**"
	if deep {
		psegs = psegs[:len(psegs)-1]
		if len(nsegs) < len(psegs) {
			return false, nil
		}
	} else if len(nsegs) != len(psegs) {
		return false, nil
	}
	for i, pseg := range psegs {
		ok, err := path.Match(pseg, nsegs[i])
		if err != nil {
			return false, fmt.Errorf("query: pattern %q: %w", pattern, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// ExpandStreams resolves the plan's member set against a directory
// snapshot: every explicit stream plus every directory name matching the
// glob, deduplicated, in sorted order (names must be sorted on input,
// which Source.Streams guarantees; explicit streams are merged in).
func ExpandStreams(p *Plan, directory []string) ([]string, error) {
	seen := make(map[string]bool, len(p.Streams))
	var out []string
	if p.Match != "" {
		for _, name := range directory {
			ok, err := MatchStream(p.Match, name)
			if err != nil {
				return nil, err
			}
			if ok && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	for _, name := range p.Streams {
		if !seen[name] {
			seen[name] = true
			out = insertSorted(out, name)
		}
	}
	return out, nil
}

// insertSorted inserts name into the sorted slice, keeping it sorted.
func insertSorted(names []string, name string) []string {
	i := 0
	for i < len(names) && names[i] < name {
		i++
	}
	names = append(names, "")
	copy(names[i+1:], names[i:])
	names[i] = name
	return names
}
