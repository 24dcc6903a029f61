package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// compare reads two sets of saved runs, separated by "--", and prints
// each metric's median per set and their ratio. It refuses to compare
// runs whose host fingerprints or workloads differ, and flags a plan
// whose kernel digest or layout differs between the sets.
func compare(out io.Writer, args []string) error {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		return errors.New("usage: perfbench compare A.json ... -- B.json ...")
	}
	base, err := loadRuns(args[:sep])
	if err != nil {
		return err
	}
	head, err := loadRuns(args[sep+1:])
	if err != nil {
		return err
	}
	first := base[0]
	for _, r := range append(base[1:], head...) {
		if r.Host.ID != first.Host.ID {
			return fmt.Errorf("refusing to compare: host fingerprints differ (%s: %+v vs %+v)", r.Workload, first.Host, r.Host)
		}
		if r.Workload != first.Workload || r.Traced != first.Traced {
			return fmt.Errorf("refusing to compare: %s (trace %v) with %s (trace %v)", first.Workload, first.Traced, r.Workload, r.Traced)
		}
	}
	plans := func(runs []savedRun) []string {
		var ids []string
		for _, r := range runs {
			id := r.Plan.Layout + "/" + r.Plan.Digest
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		return ids
	}
	if pb, ph := plans(base), plans(head); !slices.Equal(pb, ph) {
		fmt.Fprintf(out, "plan changed: %v -> %v\n", pb, ph)
	}
	fmt.Fprintf(out, "%s host=%s runs=%d vs %d\n", first.Workload, first.Host.ID, len(base), len(head))
	names := make([]string, 0, len(first.Result.Metrics))
	for n := range first.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mb, mh := medianOf(base, n), medianOf(head, n)
		fmt.Fprintf(out, "%-34s %14.4f %14.4f %8.3fx %s\n", n, mb, mh, ratio(mh, mb), first.Result.Metrics[n].Unit)
	}
	return nil
}

func loadRuns(paths []string) ([]savedRun, error) {
	runs := make([]savedRun, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &runs[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return runs, nil
}

func medianOf(runs []savedRun, name string) float64 {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return median(vals)
}

// printTotals prints the traced run's per-span-name totals and self
// times, largest self time first.
func printTotals(out io.Writer, totals map[string]spanTotals) {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]].SelfMs > totals[names[j]].SelfMs })
	for _, n := range names {
		t := totals[n]
		fmt.Fprintf(out, "span %-24s count=%-6d total_ms=%-12.3f self_ms=%.3f\n", n, t.Count, t.TotalMs, t.SelfMs)
	}
}
