package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// contractFile is the part of BENCHMARK.json -compare reads.
type contractFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdict of one (metric, workload) pair, B against A.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median (0 with fewer than 4 values), with the
// quartiles placed as Python's statistics.quantiles(values, n=4) does.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // exclusive method: position k(n+1)/4
		pos := float64(k*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / med
}

// judge compares B's median with A's under the metric's bound: worse
// when B is worse by more than the bound, better when it is better by
// more than the bound, unresolved when either side's own spread is
// wider than the bound (the difference cannot be told from noise).
func judge(a, b []float64, better string, bound float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	change = (mb - ma) / ma // signed; positive = larger
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case max(quartileSpread(a), quartileSpread(b)) > bound:
		return verdictUnresolved, change
	case worse > bound:
		return verdictWorse, change
	case worse < -bound:
		return verdictBetter, change
	}
	return verdictWithin, change
}

func readResultFile(path string) (ResultFile, error) {
	var f ResultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(buf, &f)
}

// compareFiles applies each end-to-end metric's bound to two result
// files and prints one row per (metric, workload). It returns non-zero
// when any pair is worse or B failed a larger share of its operations.
func compareFiles(stdout, stderr io.Writer, contractPath, pathA, pathB string) int {
	buf, err := os.ReadFile(contractPath)
	if err != nil {
		fmt.Fprintf(stderr, "reading the contract: %v (run from the repository root or pass -contract)\n", err)
		return 2
	}
	var contract contractFile
	if err := json.Unmarshal(buf, &contract); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", contractPath, err)
		return 2
	}
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	type key struct{ workload, metric string }
	collect := func(f ResultFile) (map[key][]float64, map[string][2]int, []string) {
		vals := make(map[key][]float64)
		fails := make(map[string][2]int) // workload → failed, attempted
		var order []string
		for _, run := range f.Runs {
			if run.Traced {
				continue
			}
			if _, seen := fails[run.Workload]; !seen {
				order = append(order, run.Workload)
			}
			t := fails[run.Workload]
			fails[run.Workload] = [2]int{t[0] + run.Result.Failed, t[1] + run.Result.Attempted}
			for name, v := range run.Result.Metrics {
				vals[key{run.Workload, name}] = append(vals[key{run.Workload, name}], v.Value)
			}
		}
		return vals, fails, order
	}
	va, fa, order := collect(a)
	vb, fb, _ := collect(b)

	bad := false
	fmt.Fprintf(stdout, "%-14s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range order {
		for _, m := range contract.EndToEnd {
			xa, xb := va[key{w, m.Name}], vb[key{w, m.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(stdout, "%-14s %-12s %14s %14s %8s %6.2f  missing\n", w, m.Name, "-", "-", "-", m.Bound)
				bad = true
				continue
			}
			verdict, change := judge(xa, xb, m.Better, m.Bound)
			bad = bad || verdict == verdictWorse
			fmt.Fprintf(stdout, "%-14s %-12s %14.6g %14.6g %+7.1f%% %6.2f  %s\n", w, m.Name, median(xa), median(xb), 100*change, m.Bound, verdict)
		}
		// failed_frac has an absolute bound of 0: any increase is worse.
		ffa := float64(fa[w][0]) / float64(max(fa[w][1], 1))
		ffb := float64(fb[w][0]) / float64(max(fb[w][1], 1))
		verdict := verdictWithin
		if ffb > ffa {
			verdict, bad = verdictWorse, true
		}
		fmt.Fprintf(stdout, "%-14s %-12s %14.6g %14.6g %8s %6s  %s\n", w, "failed_frac", ffa, ffb, "", "0 abs", verdict)
	}
	if bad {
		return 1
	}
	return 0
}
