package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// runCompare compares two commits from files of result lines: the JSON
// objects the benchmark prints last, one per run, of one workload. Lines that
// are not result objects are skipped, so whole run outputs can be appended.
// Runs are paired in file order, so alternate the two commits when taking
// them.
func runCompare(arg string, stdout, stderr io.Writer) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintf(stderr, "bench: -compare wants BASE,CHANGE, got %q\n", arg)
		return 2
	}
	base, err := readResults(paths[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	change, err := readResults(paths[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-40s %5s %12s %8s %12s %8s %9s  %s\n",
		"metric", "pairs", "base_median", "spread", "chg_median", "spread", "wins/loss", "verdict")
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		b, c := column(base, m.Name), column(change, m.Name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		cmp := compareRuns(b, c, m.Bound, m.Better)
		verdict := cmp.Verdict
		if m.Bound == 0 {
			verdict = "(per-layer, no bound)"
		}
		fmt.Fprintf(stdout, "%-40s %5d %12.6g %8.3f %12.6g %8.3f %4d/%-4d  %s\n",
			m.Name, cmp.Pairs, cmp.BaseMedian, spread(b), cmp.ChangeMedian, spread(c), cmp.Wins, cmp.Losses, verdict)
	}
	return 0
}

// readResults returns the metric values of every result line in path.
func readResults(path string) ([]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
			continue
		}
		vals := map[string]float64{}
		for k, v := range r.Metrics {
			vals[k] = v.Value
		}
		out = append(out, vals)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result lines", path)
	}
	return out, nil
}

// column returns the values of one metric across runs.
func column(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
