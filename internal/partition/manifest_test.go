package partition

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/disk"
)

// manifestFixture is a heap device holding a committed store of four
// 40-value steps at κ = 2: steps 1–3 merged into partition 3 (level 1),
// step 4 in partition 4 (level 0), next_id 5. It returns the device, the
// store's config and the committed manifest's bytes.
func manifestFixture(t testing.TB) (*disk.Manager, Config, []byte) {
	t.Helper()
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kappa: 2, Eps1: 0.1}
	s, err := NewStore(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 4; step++ {
		if _, err := s.AddBatch(seqBatch(int64(step)*1000, 40), step); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	raw, err := dev.ReadMeta("MANIFEST.json")
	if err != nil {
		t.Fatal(err)
	}
	return dev, cfg, raw
}

// TestLoadStoreRefusesInconsistentManifest: a manifest a hand edit left
// with entries that do not fit together is refused by name, before a file
// is read. Without the check, next_id 0 let the next install truncate
// part-000000.dat under the live version and two entries name one file.
func TestLoadStoreRefusesInconsistentManifest(t *testing.T) {
	dev, cfg, raw := manifestFixture(t)
	var base Manifest
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Parts) != 2 || base.NextID != 5 || base.Steps != 4 {
		t.Fatalf("fixture: %+v", base)
	}
	if _, err := LoadStore(dev, "MANIFEST.json", cfg); err != nil {
		t.Fatalf("the committed manifest: %v", err)
	}
	// newest is the step-4 partition's entry, the manifest's last.
	for _, tc := range []struct {
		name, field string
		edit        func(m *Manifest, newest *ManifestEntry)
	}{
		{"next_id 0", "next_id", func(m *Manifest, _ *ManifestEntry) { m.NextID = 0 }},
		{"next_id at the newest id", "next_id", func(m *Manifest, _ *ManifestEntry) { m.NextID = 4 }},
		{"negative next_id", "next_id", func(m *Manifest, _ *ManifestEntry) { m.NextID = -1 }},
		{"negative id", "id", func(_ *Manifest, e *ManifestEntry) { e.ID, e.Name = -1, "part--00001.dat" }},
		{"repeated id", "listed twice", func(m *Manifest, e *ManifestEntry) {
			dup := *e
			dup.StartStep, dup.EndStep = 5, 5
			m.Parts, m.Steps = append(m.Parts, dup), 5
		}},
		{"repeated name", "name", func(m *Manifest, e *ManifestEntry) {
			dup := *e
			dup.ID, dup.StartStep, dup.EndStep = 0, 5, 5
			m.Parts, m.Steps = append(m.Parts, dup), 5
		}},
		{"name not its id's", "name", func(_ *Manifest, e *ManifestEntry) { e.Name = "part-000009.dat" }},
		{"negative count", "count", func(_ *Manifest, e *ManifestEntry) { e.Count = -40 }},
		{"negative level", "level", func(_ *Manifest, e *ManifestEntry) { e.Level = -1 }},
		{"overlapping ranges", "overlap", func(_ *Manifest, e *ManifestEntry) { e.StartStep = 3 }},
		{"a gap", "gap", func(m *Manifest, e *ManifestEntry) { e.StartStep, e.EndStep, m.Steps = 5, 5, 5 }},
		{"a range that ends before it starts", "steps", func(_ *Manifest, e *ManifestEntry) { e.EndStep = 3 }},
		{"steps past the ranges", "steps", func(m *Manifest, _ *ManifestEntry) { m.Steps = 5 }},
		{"steps short of the ranges", "steps", func(m *Manifest, _ *ManifestEntry) { m.Steps = 3 }},
		{"negative steps", "steps", func(m *Manifest, _ *ManifestEntry) { m.Steps = -1 }},
		{"steps with no partitions", "steps", func(m *Manifest, _ *ManifestEntry) { m.Parts = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := base
			m.Parts = append([]ManifestEntry(nil), base.Parts...)
			tc.edit(&m, &m.Parts[1])
			if err := writeManifest(dev, "EDITED.json", m); err != nil {
				t.Fatal(err)
			}
			reads := dev.Stats()
			_, err := LoadStore(dev, "EDITED.json", cfg)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("LoadStore: %v, want a refusal naming %q", err, tc.field)
			}
			if got := dev.Stats().Sub(reads); got.SeqReads != 0 || got.Opens != 0 {
				t.Fatalf("the refusal read the device: %+v", got)
			}
		})
	}
}

// FuzzLoadStoreManifest: whatever bytes stand as MANIFEST.json on a heap
// device holding a committed store's partitions, LoadStore either refuses
// them or returns a store whose next install names no file it serves.
func FuzzLoadStoreManifest(f *testing.F) {
	_, _, raw := manifestFixture(f)
	f.Add(raw)
	f.Add([]byte(strings.Replace(string(raw), `"next_id":5`, `"next_id":0`, 1)))
	f.Add([]byte(strings.Replace(string(raw), `"next_id":5`, `"next_id":4`, 1)))
	f.Add([]byte(strings.Replace(string(raw), `"part-000004.dat"`, `"part-000003.dat"`, 1)))
	f.Add([]byte(`{"version":1,"kappa":2,"eps1":0.1,"next_id":0,"steps":0}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dev, cfg, _ := manifestFixture(t)
		if err := dev.WriteMeta("MANIFEST.json", data); err != nil {
			t.Fatal(err)
		}
		s, err := LoadStore(dev, "MANIFEST.json", cfg)
		if err != nil {
			return
		}
		live := map[string]bool{}
		for _, e := range s.Entries() {
			if live[e.Part.name] {
				t.Fatalf("two loaded partitions name %s", e.Part.name)
			}
			live[e.Part.name] = true
		}
		if next := partName(s.nextID); live[next] {
			t.Fatalf("the next install would write %s, which the loaded store serves", next)
		}
	})
}
