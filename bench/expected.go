package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// expectedJSON pins, per workload, seed and GOARCH, the digests every
// operation must reproduce: the exact bits of the simulated
// statistics, the SHA-256 of the event log (traced pass) and of the
// JSONL reports. Seed 17 is the development seed, 23 the hold-out.
// Rewrite it with -update-expected after a change that is meant to
// move simulated results.
//
//go:embed expected.json
var expectedJSON []byte

// pinnedSeeds are the seeds expected.json covers.
var pinnedSeeds = []int64{17, 23}

// expectedFile maps "workload/seed/GOARCH" → digest key → value.
type expectedFile map[string]map[string]string

func expectedKey(workload string, seed int64) string {
	return workload + "/" + strconv.FormatInt(seed, 10) + "/" + runtime.GOARCH
}

// loadExpected returns the pinned digests for this run, or nil (with
// a warning) when the seed, architecture or profile is not pinned and
// operations can only be checked against each other.
func loadExpected(c *config) map[string]string {
	if c.quick || c.collect != nil {
		return nil
	}
	var file expectedFile
	if err := json.Unmarshal(expectedJSON, &file); err != nil {
		fmt.Fprintln(os.Stderr, "warning: expected.json unreadable:", err)
		return nil
	}
	exp := file[expectedKey(c.workload, c.seed)]
	if exp == nil {
		fmt.Fprintf(os.Stderr, "warning: no pinned digests for %s seed %d on %s: operations are checked against each other only\n",
			c.workload, c.seed, runtime.GOARCH)
	}
	return exp
}

// updateExpected reruns every workload's traced pass (one untraced
// and one traced operation) on the pinned seeds and rewrites
// expected.json in dir with the digests seen.
func updateExpected(base *config, dir string) error {
	var file expectedFile
	if err := json.Unmarshal(expectedJSON, &file); err != nil || file == nil {
		file = expectedFile{}
	}
	for _, w := range workloads() {
		for _, seed := range pinnedSeeds {
			c := *base
			c.workload, c.seed, c.traced, c.seconds = w.name, seed, true, 0
			c.collect = map[string]string{}
			res, err := run(&c)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: operations disagree, nothing pinned", w.name, seed)
			}
			file[expectedKey(w.name, seed)] = c.collect
			fmt.Fprintf(os.Stderr, "pinned %s seed %d (%d digests)\n", w.name, seed, len(c.collect))
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(dir+"/expected.json", append(data, '\n'), 0o644)
}
