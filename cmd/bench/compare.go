package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is BENCHMARK.json: the contract between this benchmark
// and whoever runs it. -compare takes its bounds from here so there is
// one place they are written down.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// set is one -out file folded per workload × metric: the values that
// metric took over the file's untraced runs (one per seed).
type set map[string]map[string][]float64

func readSet(path string) (set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := set{}
	for _, run := range file.Runs {
		if run.Traced {
			continue
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, s := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], s.Value)
		}
	}
	return out, nil
}

// verdict judges one workload × metric pair of two sets against the
// metric's bound. Worse by more than the bound is a regression; a spread
// (interquartile distance over median, either side) wider than the bound
// means the runs cannot tell, which is reported as unresolved rather than
// as unchanged.
func verdict(m metricSpec, a, b stat) (delta float64, word string) {
	if a.Value != 0 {
		delta = (b.Value - a.Value) / a.Value
	}
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > m.Bound:
		return delta, "regressed"
	case a.spread() > m.Bound || b.spread() > m.Bound:
		return delta, "unresolved"
	default:
		return delta, "ok"
	}
}

// compareFiles prints, per workload × end-to-end metric, both medians and
// quartiles, the delta and the verdict, and reports whether anything
// regressed. It is the tool the two-set acceptance check uses: run the
// full set twice on one commit and no row may say regressed or
// unresolved.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-21s %-9s %12s %24s %12s %24s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "a.median", "a.q1..q3", "b.median", "b.q1..q3", "delta", "a.iqr", "b.iqr", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-21s missing from one side (%d, %d runs)\n", wl.Name, m.Name, len(va), len(vb))
				counts["missing"]++
				continue
			}
			sa, sb := summarize(m.Unit, va), summarize(m.Unit, vb)
			delta, word := verdict(m, sa, sb)
			counts[word]++
			fmt.Fprintf(w, "%-15s %-21s %-9s %12.6g %24s %12.6g %24s %+7.2f%% %6.2f%% %6.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, m.Unit, sa.Value, fmt.Sprintf("%.6g..%.6g", sa.Q1, sa.Q3),
				sb.Value, fmt.Sprintf("%.6g..%.6g", sb.Q1, sb.Q3),
				100*delta, 100*sa.spread(), 100*sb.spread(), 100*m.Bound, word)
		}
	}
	fmt.Fprintf(w, "ok=%d unresolved=%d regressed=%d missing=%d\n", counts["ok"], counts["unresolved"], counts["regressed"], counts["missing"])
	return counts["regressed"] > 0, nil
}
