package partition

import (
	"encoding/json"
	"fmt"
	"math"
	"path"
	"slices"
	"strings"

	"repro/internal/disk"
)

// manifestVersion guards against loading manifests from incompatible builds.
const manifestVersion = 1

// Manifest is the durable description of a Store: enough to reopen the
// warehouse after a restart. Summaries are not in it: LoadStore takes the
// ones its caller captured earlier in the process and rebuilds the rest
// with one sequential scan per partition, the same I/O class as the merge
// that produced the partition.
type Manifest struct {
	Version int `json:"version"`
	// Namespace is the logical stream this store belongs to ("" for
	// single-stream stores). Checked against Config.Namespace on load.
	Namespace string          `json:"namespace,omitempty"`
	Kappa     int             `json:"kappa"`
	Eps1      float64         `json:"eps1"`
	NextID    int64           `json:"next_id"`
	Steps     int             `json:"steps"`
	Parts     []ManifestEntry `json:"partitions"`
	// Pending is the sealed steps an earlier release kept as raw spills until
	// they were installed. Nothing writes it any more, and LoadStore refuses
	// a manifest that has it.
	Pending []json.RawMessage `json:"pending,omitempty"`
}

// ManifestEntry describes one partition.
type ManifestEntry struct {
	ID        int64  `json:"id"`
	Level     int    `json:"level"`
	Count     int64  `json:"count"`
	StartStep int    `json:"start_step"`
	EndStep   int    `json:"end_step"`
	Name      string `json:"name"`
}

// manifestSnapshotLocked builds the manifest from the published state: its
// partitions. Sealed steps are not durable until their partitions are
// published, so Steps is the installed steps. Caller holds vmu.
func (s *Store) manifestSnapshotLocked() (Manifest, int64) {
	m := Manifest{
		Version:   manifestVersion,
		Namespace: s.cfg.Namespace,
		Kappa:     s.cfg.Kappa,
		Eps1:      s.cfg.Eps1,
		NextID:    s.nextID,
		Steps:     s.cur.InstalledSteps(),
	}
	for _, e := range s.cur.entries {
		m.Parts = append(m.Parts, ManifestEntry{
			ID:        e.Part.ID,
			Level:     e.Part.Level,
			Count:     e.Part.Count,
			StartStep: e.Part.StartStep,
			EndStep:   e.Part.EndStep,
			Name:      e.Part.name,
		})
	}
	return m, s.cur.seq
}

// CreateManifest writes, at name, the manifest of an empty store under cfg:
// the state LoadStore opens as a store that has sealed no step.
func CreateManifest(dev *disk.Manager, name string, cfg Config) error {
	return writeManifest(dev, name, Manifest{Version: manifestVersion, Namespace: cfg.Namespace, Kappa: cfg.Kappa, Eps1: cfg.Eps1})
}

// writeManifest serializes and atomically writes one manifest snapshot.
func writeManifest(dev *disk.Manager, name string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("partition: marshal manifest: %w", err)
	}
	if err := dev.WriteMeta(name, data); err != nil {
		return fmt.Errorf("partition: write manifest: %w", err)
	}
	return nil
}

// ParseManifest decodes a manifest Commit wrote, compact or (earlier builds)
// indented, validating its version and that its entries fit together (see
// check). Callers inspecting on-disk state directly (the crash harness,
// tooling) share the store's decoding rules.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("partition: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("partition: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if err := m.check(); err != nil {
		return nil, fmt.Errorf("partition: manifest: %w", err)
	}
	return &m, nil
}

// check refuses, naming the field, entries a hand edit left unfit: an id
// outside [0, next_id), whose file the next install would truncate; a
// repeated id; a name not its id's; a negative count or level; or step
// ranges that do not tile steps 1..steps.
func (m *Manifest) check() error {
	ids := make(map[int64]bool, len(m.Parts))
	for _, p := range m.Parts {
		switch {
		case p.ID < 0 || p.ID >= m.NextID:
			return fmt.Errorf("partition id %d is outside [0, next_id = %d)", p.ID, m.NextID)
		case ids[p.ID]:
			return fmt.Errorf("partition id %d is listed twice", p.ID)
		case p.Name != partName(p.ID):
			return fmt.Errorf("partition %d has name %q, want %q", p.ID, p.Name, partName(p.ID))
		case p.Count < 0 || p.Level < 0:
			return fmt.Errorf("partition %d has count %d and level %d, which must not be negative", p.ID, p.Count, p.Level)
		}
		ids[p.ID] = true
	}
	parts := slices.SortedFunc(slices.Values(m.Parts), func(a, b ManifestEntry) int { return a.StartStep - b.StartStep })
	end := 0
	for _, p := range parts {
		if p.StartStep != end+1 || p.EndStep < p.StartStep {
			return fmt.Errorf("partition %d covers steps %d..%d, not from step %d: the ranges overlap or leave a gap", p.ID, p.StartStep, p.EndStep, end+1)
		}
		end = p.EndStep
	}
	if end != m.Steps {
		return fmt.Errorf("the partitions' step ranges end at step %d, steps is %d", end, m.Steps)
	}
	return nil
}

// tempFilePatterns matches the transient files a crash can strand:
// interrupted metadata temp files. Any match is removable debris once no
// install is in flight.
var tempFilePatterns = []string{"*.tmp"}

// TempFilePatterns returns the patterns of transient install files, for
// harnesses asserting that recovery leaves none behind. Partition files
// (part-*.dat) are deliberately excluded: whether one is debris depends on
// whether a manifest references it.
func TempFilePatterns() []string {
	return slices.Clone(tempFilePatterns)
}

// orphanPatterns is what CollectOrphans removes: the transient files plus
// partitions written but never committed. Committed partitions share the
// part-*.dat pattern, so the collector only removes matches that no
// manifest entry references.
var orphanPatterns = append([]string{"part-*.dat"}, tempFilePatterns...)

// CollectOrphans removes files in the device view that a crashed or failed
// install left behind: files matching the store's temporary/partition name
// patterns that are not in keep. Names containing a path separator (nested
// namespaces) are never touched. It reports the names it removed. It lists
// the whole view, so LoadStore does not run it (Store.CollectOrphans).
func CollectOrphans(dev *disk.Manager, keep map[string]bool) ([]string, error) {
	names, err := dev.List("")
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, name := range names {
		if strings.Contains(name, "/") || keep[name] {
			continue
		}
		matched := false
		for _, pat := range orphanPatterns {
			if ok, _ := path.Match(pat, name); ok {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		if err := dev.Remove(name); err != nil {
			return removed, fmt.Errorf("partition: collect orphan %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}

// LoadStore reopens a Store from a manifest. A partition whose step range
// and count match one of held (oldest first) takes that summary with no
// read; it enters the HS unchecked, so the caller holds only summaries of
// the partitions' own data, over partitions a scan has found in order. Any
// other partition's summary is rebuilt with one sequential scan
// (Store.Scanned), which refuses a partition that is not sorted on disk. A
// manifest whose entries do not fit together is refused before any file is
// read (ParseManifest). It reads only the files the manifest names, so
// files from half-finished installs — partitions written but never
// committed, metadata temporaries — never poison a reopen; it does not
// remove them (Store.CollectOrphans does).
//
// A manifest with a pending section — sealed steps an earlier release kept
// as raw spills — is refused before anything is touched: that release wrote
// raw partitions too, which this one does not read, so the upgrade is to
// re-ingest.
func LoadStore(dev *disk.Manager, manifestName string, cfg Config, held ...PartSummary) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	data, err := dev.ReadMeta(manifestName)
	if err != nil {
		return nil, fmt.Errorf("partition: read manifest: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, err
	}
	if len(m.Pending) > 0 {
		return nil, fmt.Errorf("partition: manifest lists %d sealed steps as raw spills, a layout of an earlier release; "+
			"to upgrade, re-ingest the stream's source data into a new directory with this release", len(m.Pending))
	}
	if m.Namespace != cfg.Namespace {
		return nil, fmt.Errorf("partition: manifest namespace %q != config namespace %q", m.Namespace, cfg.Namespace)
	}
	if m.Kappa != cfg.Kappa {
		return nil, fmt.Errorf("partition: manifest kappa %d != config kappa %d", m.Kappa, cfg.Kappa)
	}
	s := &Store{dev: dev, cfg: cfg, nextID: m.NextID}
	ents := make([]*Summary, 0, len(m.Parts))
	for _, pe := range m.Parts {
		p := &Partition{
			ID:        pe.ID,
			Level:     pe.Level,
			Count:     pe.Count,
			StartStep: pe.StartStep,
			EndStep:   pe.EndStep,
			dev:       dev,
			name:      pe.Name,
		}
		i, ok := slices.BinarySearchFunc(held, pe.StartStep, func(h PartSummary, step int) int { return h.StartStep - step })
		if ok && held[i].EndStep == pe.EndStep && held[i].Count == pe.Count && len(held[i].Values) == Beta(pe.Count, cfg.Eps1) {
			ents = append(ents, &Summary{Part: p, Values: held[i].Values, eps1: cfg.Eps1})
			continue
		}
		sum, err := rebuildSummary(p, cfg.Eps1)
		if err != nil {
			return nil, err
		}
		s.scanned += pe.Count
		ents = append(ents, sum)
	}
	// The store's one list is oldest first, whatever order the manifest
	// lists the partitions in.
	slices.SortFunc(ents, func(a, b *Summary) int { return a.Part.StartStep - b.Part.StartStep })
	// Publish the recovered state as the initial version (no other goroutine
	// has the store yet); the manifest we just read is by definition
	// committed.
	s.cur = &Version{store: s, seq: 0, refs: 1}
	s.live = []*Version{s.cur}
	s.committedSeq = s.publishLocked(ents, nil, s.newMemo()).seq
	return s, nil
}

// Scanned is the number of values LoadStore read to rebuild summaries: zero
// when every partition's summary was held, and for a store NewStore made.
func (s *Store) Scanned() int64 { return s.scanned }

// CollectOrphans sweeps the view of a store LoadStore just returned, before
// its first write, keeping the manifest and the loaded partitions. Run it
// on the first load after opening the device, which covers crash debris,
// and on the load after a store that reported MayHoldOrphans.
func (s *Store) CollectOrphans(manifestName string) ([]string, error) {
	keep := map[string]bool{manifestName: true}
	for _, e := range s.Entries() {
		keep[e.Part.name] = true
	}
	return CollectOrphans(s.dev, keep)
}

// rebuildSummary reconstructs HSᵢ for a partition with one sequential scan,
// a decoded block at a time.
func rebuildSummary(p *Partition, eps1 float64) (*Summary, error) {
	r, err := p.OpenSequential()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Count() != p.Count {
		return nil, fmt.Errorf("partition: %s has %d elements on disk, manifest says %d", p.name, r.Count(), p.Count)
	}
	cap := newCapture(p, eps1)
	prev := int64(math.MinInt64)
	for {
		b, err := r.NextBlock()
		if err != nil {
			return nil, err
		}
		if len(b) == 0 {
			return cap.summary()
		}
		if b[0] < prev || !slices.IsSorted(b) {
			return nil, fmt.Errorf("partition: %s is not sorted on disk", p.name)
		}
		prev = b[len(b)-1]
		cap.feedSlice(b)
	}
}
