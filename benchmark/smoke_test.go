package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"hydra"
)

// TestContractMatchesCode: BENCHMARK.json is what the code's tables
// render, and the tables keep to the contract's limits.
func TestContractMatchesCode(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, contractJSON()) {
		t.Error("BENCHMARK.json differs from the code's tables; regenerate it with: bash benchmark/run.sh -print-contract > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract's limits", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line reason of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
}

// TestEveryMetricEmitted runs all seven workloads at toy sizes, both
// passes, with no timing assertions: every run is correct, every
// end-to-end metric is reported non-zero by every workload, every
// per-layer name is reported by every workload, and each per-layer
// metric is non-zero on at least one.
func TestEveryMetricEmitted(t *testing.T) {
	moved := make(map[string]bool)
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			r := &Run{Seed: 7, Seconds: 0.01, Tiny: true, ScratchBase: t.TempDir()}
			want := endToEnd
			if traced {
				r.Trace, r.Layer, want = NewTracer(), make(map[string]float64), perLayer
			}
			d, err := execute(def, r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !d.Result.Correct || d.Result.Attempted < 1 || d.Result.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", def.Name, traced, d.Result.Failed, d.Result.Attempted, d.Failures)
			}
			if len(d.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.Name, traced, len(d.Result.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := d.Result.Metrics[m.Name]
				switch {
				case !ok || v.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", def.Name, traced, m.Name, v.Unit, m.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, m.Name, v.Value)
				case v.Value != 0:
					moved[m.Name] = true
				}
			}
			var line Result
			if err := json.Unmarshal([]byte(resultLine(d.Result)), &line); err != nil || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line does not round-trip: %v", def.Name, traced, err)
			}
			if traced && repWall(r.Trace.Spans()) <= 0 {
				t.Errorf("%s: traced pass recorded no repetition span", def.Name)
			}
		}
	}
	for _, m := range perLayer {
		// A healthy fleet requeues nothing: the one metric that is 0
		// wherever it is measured.
		if !moved[m.Name] && m.Name != "pipeline.fleet.requeued" {
			t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
		}
	}
}

// TestChecksFire: the oracles reject deliberately perturbed outputs and
// accept the unperturbed ones.
func TestChecksFire(t *testing.T) {
	failed := func(f func(r *Run)) int {
		r := &Run{}
		f(r)
		return len(r.failures)
	}

	// An exponential(1) CDF sampled densely: mean 1.
	var times, cdf []float64
	for i := 1; i <= 400; i++ {
		x := float64(i) * 0.05
		times = append(times, x)
		cdf = append(cdf, 1-math.Exp(-x))
	}
	good := &hydra.Result{Times: times, Values: cdf}
	if n := failed(func(r *Run) { checkCDF(r, good, 1) }); n != 0 {
		t.Errorf("checkCDF rejected an exact exponential CDF (%d failures)", n)
	}
	dip := append([]float64(nil), cdf...)
	dip[200] -= 0.01 // no longer monotone
	if n := failed(func(r *Run) { checkCDF(r, &hydra.Result{Times: times, Values: dip}, 1) }); n == 0 {
		t.Error("checkCDF accepted a non-monotone curve")
	}
	if n := failed(func(r *Run) { checkCDF(r, good, 1.05) }); n == 0 {
		t.Error("checkCDF accepted a mean 5% off")
	}

	curve := []float64{0.1, 0.2, 0.3}
	if n := failed(func(r *Run) { checkSameCurve(r, "unit", curve, curve) }); n != 0 {
		t.Error("checkSameCurve rejected identical curves")
	}
	if n := failed(func(r *Run) { checkSameCurve(r, "unit", []float64{0.1, 0.2 + 1e-7, 0.3}, curve) }); n == 0 {
		t.Error("checkSameCurve accepted a curve 1e-7 off")
	}

	a := []complex128{1, 2i, 3}
	if d := maxRelDiff(a, a); d != 0 {
		t.Errorf("maxRelDiff(a, a) = %v", d)
	}
	if d := maxRelDiff([]complex128{1, 2i, 3 + 1e-5}, a); d <= vectorRelTol {
		t.Errorf("maxRelDiff missed a 1e-5 perturbation: %v", d)
	}
	if !sameValues(curve, curve) || sameValues([]float64{0.1, 0.2, 0.3001}, curve) {
		t.Error("sameValues does not separate equal from perturbed")
	}
}

// TestJudge: -compare's verdicts.
func TestJudge(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95}
	cases := []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{10.2, 10.3, 10.1, 10.2, 10.25, 10.15}, "lower", verdictWithin},
		{[]float64{12, 12.1, 11.9, 12, 12.05, 11.95}, "lower", verdictWorse},
		{[]float64{8, 8.1, 7.9, 8, 8.05, 7.95}, "lower", verdictBetter},
		{[]float64{8, 8.1, 7.9, 8, 8.05, 7.95}, "higher", verdictWorse},
		{[]float64{6, 14, 8, 12, 7, 13}, "lower", verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judge(steady, c.b, c.better, 0.10); got != c.want {
			t.Errorf("judge(%v, better=%s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25].
	if got, want := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
