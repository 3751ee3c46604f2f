package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed is the seed the committed digests were recorded under.
const defaultSeed = 2003

// expectedFile is bench/expected.json: for the default seed, the digest
// of each workload's simulated statistics. A change that only claims
// speed must leave them alone; `bench -record` rewrites them when a
// change means to alter what is simulated.
type expectedFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func expectedPath(root string) string { return filepath.Join(root, "bench", "expected.json") }

func readExpected(root string) (expectedFile, error) {
	exp := expectedFile{Seed: defaultSeed, Digests: map[string]string{}}
	raw, err := os.ReadFile(expectedPath(root))
	if os.IsNotExist(err) {
		return exp, nil
	}
	if err != nil {
		return exp, err
	}
	if err := json.Unmarshal(raw, &exp); err != nil {
		return exp, fmt.Errorf("%s: %w", expectedPath(root), err)
	}
	return exp, nil
}

// checkExpected compares (or, with -record, stores) the run's digest
// with the committed one. Only runs under the recorded seed are
// comparable; a mismatch is a failed operation.
func checkExpected(o runOpts, digest string, res *Result) error {
	exp, err := readExpected(o.root)
	if err != nil {
		return err
	}
	if o.seed != exp.Seed {
		return nil
	}
	if o.record {
		exp.Digests[o.name] = digest
		raw, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(o.log, "  recorded digest %s\n", digest)
		return os.WriteFile(expectedPath(o.root), append(raw, '\n'), 0o644)
	}
	res.Attempted++
	if want, ok := exp.Digests[o.name]; !ok || want != digest {
		res.Failed++
		fmt.Fprintf(o.log, "  FAILED: simulated-statistics digest %s, bench/expected.json has %q\n", digest, want)
	}
	return nil
}
