package partition

import (
	"encoding/json"
	"fmt"
	"path"
	"slices"
	"strings"

	"repro/internal/disk"
)

// manifestVersion guards against loading manifests from incompatible builds.
// Version 1 gained the optional "pending" section with the seal/install
// split; manifests without it load as fully-installed stores.
const manifestVersion = 1

// Manifest is the durable description of a Store: enough to reopen the
// warehouse after a restart. Summaries are not persisted — they are rebuilt
// with one sequential scan per partition on load, which is the same I/O
// class as the merge that produced the partition.
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
	// Pending lists time steps that were sealed (their raw spill is durable)
	// but not yet installed as partitions when the manifest was written, in
	// step order. A reopened store re-installs them from their spills.
	Pending []SealedBatch `json:"pending,omitempty"`
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

// manifestSnapshotLocked builds the manifest from the published state.
// Caller holds vmu. Sealed batches whose spill has not succeeded are not
// durable, so they — and every later step, to keep the durable history a
// prefix — are omitted and Steps is truncated accordingly; Commit repairs
// missing spills before taking the snapshot, so this only matters when a
// spill repair itself failed.
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
	for _, sb := range s.cur.pending {
		if sb.Name == "" {
			break
		}
		m.Pending = append(m.Pending, SealedBatch{
			ID: sb.ID, Name: sb.Name, Count: sb.Count, Step: sb.Step,
		})
		m.Steps++
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
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("partition: marshal manifest: %w", err)
	}
	if err := dev.WriteMeta(name, data); err != nil {
		return fmt.Errorf("partition: write manifest: %w", err)
	}
	return nil
}

// ParseManifest decodes a manifest previously written by Commit,
// validating its version. Callers inspecting on-disk state directly (the
// crash harness, tooling) share the store's own decoding rules.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("partition: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("partition: manifest version %d, want %d", m.Version, manifestVersion)
	}
	return &m, nil
}

// tempFilePatterns matches the transient files an install creates and a
// crash can strand: raw batch spills, external-sort temporaries, the
// pmerge-* temporaries of earlier builds, and interrupted metadata temp
// files. Any match is removable debris once no install is in flight —
// except raw spills referenced by the manifest's pending section, which are
// the durable form of sealed steps.
var tempFilePatterns = []string{
	"batch-raw-*.dat",
	"sort-*",
	"extsort-run*",
	"pmerge-*",
	"*.tmp",
}

// TempFilePatterns returns the patterns of transient install files, for
// harnesses asserting that recovery leaves none behind. Partition files
// (part-*.dat) are deliberately excluded: whether one is debris depends on
// whether a manifest references it. The same caveat applies to raw spills
// (batch-raw-*.dat) listed in a manifest's pending section.
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
// namespaces) are never touched. It reports the names it removed.
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

// LoadStore reopens a Store from a manifest, rebuilding each partition's
// in-memory summary with a sequential scan. Files from half-finished
// installs — partitions written but never committed, raw batches not listed
// as pending, sort temporaries — are detected and garbage-collected, so a
// crash between data writes and the manifest commit never poisons a reopen.
// Sealed-but-uninstalled steps listed in the manifest's pending section are
// re-queued; callers should run maintenance (or install synchronously) to
// fold them back into partitions before serving queries.
func LoadStore(dev *disk.Manager, manifestName string, cfg Config) (*Store, error) {
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
	if m.Namespace != cfg.Namespace {
		return nil, fmt.Errorf("partition: manifest namespace %q != config namespace %q", m.Namespace, cfg.Namespace)
	}
	if m.Kappa != cfg.Kappa {
		return nil, fmt.Errorf("partition: manifest kappa %d != config kappa %d", m.Kappa, cfg.Kappa)
	}
	s := &Store{dev: dev, mdev: dev.MaintTagged(), cfg: cfg, beta1: cfg.Beta1(), nextID: m.NextID}
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
		sum, err := rebuildSummary(p, cfg.Eps1, s.beta1)
		if err != nil {
			return nil, err
		}
		ents = append(ents, sum)
	}
	// The store's one list is oldest first, whatever order the manifest
	// lists the partitions in.
	slices.SortFunc(ents, func(a, b *Summary) int { return a.Part.StartStep - b.Part.StartStep })
	pending := make([]*SealedBatch, 0, len(m.Pending))
	for i := range m.Pending {
		sb := &m.Pending[i]
		if sb.Name == "" {
			return nil, fmt.Errorf("partition: manifest pending step %d has no spill", sb.Step)
		}
		pending = append(pending, &SealedBatch{ID: sb.ID, Name: sb.Name, Count: sb.Count, Step: sb.Step})
	}
	// Publish the recovered state as the initial version (no other goroutine
	// has the store yet); the manifest we just read is by definition
	// committed.
	s.cur = &Version{store: s, seq: 0, refs: 1}
	s.live = []*Version{s.cur}
	s.committedSeq = s.publishLocked(ents, pending, s.newMemo()).seq

	keep := make(map[string]bool, len(m.Parts)+len(m.Pending)+1)
	keep[manifestName] = true
	for _, pe := range m.Parts {
		keep[pe.Name] = true
	}
	for _, sb := range pending {
		keep[sb.Name] = true
	}
	if _, err := CollectOrphans(dev, keep); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuildSummary reconstructs HSᵢ for a partition with one sequential scan.
func rebuildSummary(p *Partition, eps1 float64, beta1 int) (*Summary, error) {
	r, err := p.OpenSequential()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Count() != p.Count {
		return nil, fmt.Errorf("partition: %s has %d elements on disk, manifest says %d", p.name, r.Count(), p.Count)
	}
	cap := newCapture(p.Count, eps1, beta1)
	prev := int64(0)
	first := true
	for {
		v, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !first && v < prev {
			return nil, fmt.Errorf("partition: %s is not sorted on disk", p.name)
		}
		prev, first = v, false
		cap.feed(v)
	}
	return cap.summary(p)
}
