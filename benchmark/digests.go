package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Committed digests of every trial's simulated outcome, keyed by
// "<size>/<workload>/seed<n>" (the suite's experiments carry fixed
// seeds, so its key has no seed). A run whose key is present checks each
// trial against them; any other seed is checked only for determinism.
//
//go:embed testdata/digests.json
var committedDigests []byte

// digestFile is where -update writes, relative to the repository root.
const digestFile = "benchmark/testdata/digests.json"

// updateSeeds are the seeds -update commits digests for.
var updateSeeds = []uint64{1, 2}

type digestTable map[string][]string

func parseDigests(raw []byte) (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	return t, nil
}

func digestKey(size string, w *workload, seed uint64) string {
	if !w.seeded {
		return size + "/" + w.name
	}
	return fmt.Sprintf("%s/%s/seed%d", size, w.name, seed)
}

// writeDigests stores t at digestFile with sorted keys, one trial per line.
func writeDigests(t digestTable) error {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := []byte("{\n")
	for i, k := range keys {
		buf = fmt.Appendf(buf, "  %q: [\n", k)
		for j, d := range t[k] {
			sep := ","
			if j == len(t[k])-1 {
				sep = ""
			}
			buf = fmt.Appendf(buf, "    %q%s\n", d, sep)
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		buf = fmt.Appendf(buf, "  ]%s\n", sep)
	}
	buf = append(buf, "}\n"...)
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(digestFile, buf, 0o644)
}
