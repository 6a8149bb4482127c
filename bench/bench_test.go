package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lastLine returns the last non-empty line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// Every workload runs at reduced sizes, untraced and traced, emits exactly
// its metrics with their units and fails no check.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				cfg := config{seed: 1, seconds: 0.01, trace: traced, small: true, spanDir: t.TempDir()}
				rep, err := runWorkload(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printReport(&out, cfg, w, rep); err != nil {
					t.Fatal(err)
				}
				var res result
				if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if traced {
					checkSpanFile(t, filepath.Join(cfg.spanDir, w.name+"-seed1.jsonl"))
				}
			})
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int]spanRecord{}
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.ID <= 0 || s.Parent >= s.ID || s.End < s.Start || s.Name == "" {
			t.Errorf("malformed span %+v", s)
		}
		if p, ok := spans[s.Parent]; s.Parent > 0 && (!ok || s.Start < p.Start || s.End > p.End) {
			t.Errorf("span %+v lies outside its parent %+v", s, p)
		}
		spans[s.ID] = s
		names[s.Name] = true
	}
	for _, want := range []string{"setup", "unit", "check", "probe.core"} {
		if !names[want] {
			t.Errorf("no %q span in %s", want, path)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"stray"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}

// BENCHMARK.json at the repository root describes this benchmark; it must
// list the same workloads and metrics as the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the default -seconds %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		name       string
		json, code []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", c.name, len(c.json), len(c.code))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
}
