package hydra_test

import (
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hydra"
	"hydra/internal/leaktest"
	"hydra/internal/lt"
)

const quickSpec = `
\model{
  \statevector{ \type{short}{idle, stage1, done} }
  \initial{ idle = 1; stage1 = 0; done = 0; }
  \transition{start}{
    \condition{idle > 0}
    \action{ next->idle = idle - 1; next->stage1 = stage1 + 1; }
    \sojourntimeLT{ expLT(2, s) }
  }
  \transition{finish}{
    \condition{stage1 > 0}
    \action{ next->stage1 = stage1 - 1; next->done = done + 1; }
    \sojourntimeLT{ expLT(5, s) }
  }
  \transition{reset}{
    \condition{done > 0}
    \action{ next->done = done - 1; next->idle = idle + 1; }
    \sojourntimeLT{ expLT(1, s) }
  }
}
\passage{
  \sourcecondition{idle == 1}
  \targetcondition{done == 1}
  \t_start{0.1} \t_stop{2.5} \t_points{6}
}
`

func TestLoadSpecPassageDensityClosedForm(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 3 {
		t.Fatalf("states = %d, want 3", m.NumStates())
	}
	ms := m.Measures()
	if len(ms) != 1 || ms[0].Kind != hydra.Passage {
		t.Fatalf("measures = %+v", ms)
	}
	r, err := m.PassageDensity(ms[0].Sources, ms[0].Targets, ms[0].Times, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range r.Times {
		want := 10.0 / 3 * (math.Exp(-2*tt) - math.Exp(-5*tt))
		if math.Abs(r.Values[i]-want) > 1e-6 {
			t.Errorf("f(%v) = %v, want %v", tt, r.Values[i], want)
		}
	}
}

func TestPassageCDFAndQuantile(t *testing.T) {
	// Single exponential hop: F(t) = 1 − e^{−2t}; median = ln2/2.
	src := `
\model{
  \statevector{ \type{short}{a, b} }
  \initial{ a = 1; b = 0; }
  \transition{go}{ \condition{a > 0} \action{next->a = a-1; next->b = b+1;} \sojourntimeLT{expLT(2,s)} }
  \transition{back}{ \condition{b > 0} \action{next->b = b-1; next->a = a+1;} \sojourntimeLT{expLT(7,s)} }
}
`
	m, err := hydra.LoadSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.PassageCDF([]int{0}, []int{1}, []float64{0.2, 0.5, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range r.Times {
		want := 1 - math.Exp(-2*tt)
		if math.Abs(r.Values[i]-want) > 1e-6 {
			t.Errorf("F(%v) = %v, want %v", tt, r.Values[i], want)
		}
	}
	q, err := m.PassageQuantile([]int{0}, []int{1}, 0.5, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Ln2 / 2; math.Abs(q-want) > 1e-3 {
		t.Errorf("median = %v, want %v", q, want)
	}
}

func TestVotingSystem0MatchesTable1(t *testing.T) {
	m, err := hydra.VotingSystem(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 2061 {
		t.Errorf("system 0 has %d states, want 2061", m.NumStates())
	}
	if m.PlaceIndex("p7") != 6 || m.PlaceIndex("nope") != -1 {
		t.Errorf("place indexing broken")
	}
}

func TestVotingAnalyticVsSimulation(t *testing.T) {
	// A scaled-down voting system keeps the integration test fast while
	// exercising the full §5.3 validation loop: analytic CDF vs
	// simulated walks for the failure-mode passage.
	m, err := hydra.VotingConfig(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p6, p7 := m.PlaceIndex("p6"), m.PlaceIndex("p7")
	targets := m.States(func(mk hydra.Marking) bool {
		return mk[p7] >= 2 || mk[p6] >= 1
	})
	if len(targets) == 0 {
		t.Fatal("no failure-mode states")
	}
	sources := []int{m.InitialState()}
	times := []float64{20, 60, 120, 240}
	cdf, err := m.PassageCDF(sources, targets, times, &hydra.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := m.SimulatePassage(sources, targets, &hydra.SimOptions{Replications: 20000, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Interpolate the analytic CDF over the sample range via the four
	// fixed points: compare pointwise against the empirical CDF.
	for i, tt := range times {
		var below int
		for _, s := range samples {
			if s <= tt {
				below++
			}
		}
		emp := float64(below) / float64(len(samples))
		if math.Abs(cdf.Values[i]-emp) > 0.02 {
			t.Errorf("F(%v): analytic %v vs simulated %v", tt, cdf.Values[i], emp)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m, err := hydra.VotingConfig(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := m.PlaceIndex("p2")
	targets := m.States(func(mk hydra.Marking) bool { return mk[p2] == 2 })
	if len(targets) == 0 {
		t.Fatal("no target states")
	}
	sources := []int{m.InitialState()}
	ssProb, err := m.SteadyStateProbability(targets)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.TransientDistribution(sources, targets, []float64{2000, 4000}, &hydra.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.Values {
		if math.Abs(v-ssProb) > 0.01*(1+ssProb) {
			t.Errorf("T(%v) = %v has not converged to steady state %v", tr.Times[i], v, ssProb)
		}
	}
}

func TestCheckpointThroughFacade(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "facade.ckpt")
	opts := &hydra.Options{CheckpointPath: ck}
	ms := m.Measures()[0]
	r1, err := m.PassageDensity(ms.Sources, ms.Targets, ms.Times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.FromCache != 0 {
		t.Errorf("first run cache hits = %d", r1.Stats.FromCache)
	}
	r2, err := m.PassageDensity(ms.Sources, ms.Targets, ms.Times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Evaluated != 0 {
		t.Errorf("second run evaluated %d points, want 0 (checkpoint)", r2.Stats.Evaluated)
	}
	for i := range r1.Values {
		if r1.Values[i] != r2.Values[i] {
			t.Fatalf("values differ across checkpointed runs")
		}
	}
}

// TestDistributedMasterWorker drives the public distributed API both
// ways: a resident fleet that two workers join before the job runs (both
// must be dismissed cleanly by Close, leaving no goroutine behind), and
// the one-shot ServeMaster with the one worker it waits for.
func TestDistributedMasterWorker(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	ms := m.Measures()[0]
	job, err := m.NewPassageJob("dist-test", ms.Sources, ms.Targets, ms.Times, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.PassageDensity(ms.Sources, ms.Targets, ms.Times, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, r *hydra.Result) {
		t.Helper()
		for i := range r.Values {
			if math.Abs(r.Values[i]-ref.Values[i]) > 1e-12 {
				t.Fatalf("distributed value %d differs: %v vs %v", i, r.Values[i], ref.Values[i])
			}
		}
	}

	t.Run("fleet", func(t *testing.T) {
		noLeak := leaktest.Check(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fleet := hydra.NewFleet(ln, hydra.FleetOptions{})
		defer fleet.Close()
		done := make(chan error, 2)
		for _, name := range []string{"w0", "w1"} {
			go func(name string) { done <- m.RunWorker(ln.Addr().String(), name, nil) }(name)
		}
		for deadline := time.Now().Add(10 * time.Second); len(fleet.Snapshot().Connected) < 2; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/2 workers joined the fleet", len(fleet.Snapshot().Connected))
			}
			time.Sleep(2 * time.Millisecond)
		}
		r, err := m.RunJob(job, ms.Times, nil, &hydra.Options{Backend: fleet})
		if err != nil {
			t.Fatal(err)
		}
		check(t, r)
		fleet.Close()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Errorf("worker: %v", err)
			}
		}
		noLeak()
	})

	t.Run("one-shot", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// One worker: the listener already accepts, so its dial queues
		// until ServeMaster serves it, and the job cannot finish without it.
		done := make(chan error, 1)
		go func() { done <- m.RunWorker(ln.Addr().String(), "w", nil) }()
		r, err := m.ServeMaster(ln, job, ms.Times, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, r)
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	})
}

func TestOptionsValidation(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PassageDensity([]int{0}, []int{2}, []float64{1}, &hydra.Options{Method: "simpson"}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := m.PassageDensity([]int{0}, []int{2}, []float64{-1}, nil); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := m.PassageDensity(nil, []int{2}, []float64{1}, nil); err == nil {
		t.Error("empty sources accepted")
	}
	if _, err := m.PassageQuantile([]int{0}, []int{2}, 1.5, 1, nil); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestLaguerreMethodThroughFacade(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	ms := m.Measures()[0]
	eu, err := m.PassageDensity(ms.Sources, ms.Targets, ms.Times, &hydra.Options{Method: "euler"})
	if err != nil {
		t.Fatal(err)
	}
	la, err := m.PassageDensity(ms.Sources, ms.Targets, ms.Times, &hydra.Options{Method: "laguerre"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range eu.Values {
		if math.Abs(eu.Values[i]-la.Values[i]) > 1e-5 {
			t.Errorf("t=%v: euler %v vs laguerre %v", eu.Times[i], eu.Values[i], la.Values[i])
		}
	}
}

func TestPassageMomentsThroughFacade(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	// idle→done = exp(2) then exp(5): mean 0.7, var 0.29.
	mean, variance, err := m.PassageMoments([]int{0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-0.7) > 1e-9 || math.Abs(variance-0.29) > 1e-9 {
		t.Errorf("moments = %v, %v; want 0.7, 0.29", mean, variance)
	}
	// Against the simulation estimator.
	samples, err := m.SimulatePassage([]int{0}, []int{2}, &hydra.SimOptions{Replications: 40000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sm, sd := hydra.SampleStats(samples)
	if math.Abs(sm-mean) > 0.02 || math.Abs(sd*sd-variance) > 0.03 {
		t.Errorf("simulated %v/%v vs exact %v/%v", sm, sd*sd, mean, variance)
	}
}

func TestQuantileConsistentWithCDF(t *testing.T) {
	// F(quantile(p)) ≈ p across several probabilities.
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.25, 0.5, 0.9, 0.99} {
		q, err := m.PassageQuantile([]int{0}, []int{2}, p, 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.PassageCDF([]int{0}, []int{2}, []float64{q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Values[0]-p) > 2e-3 {
			t.Errorf("F(quantile(%v)=%v) = %v", p, q, r.Values[0])
		}
	}
}

// TestTransientRejectsContourLeavingHalfPlane checks that the facade
// refuses a spec with an s-point in Re s ≤ 0 — where neither the Eq. (10)
// series nor the renewal series for T*(s) is guaranteed to converge —
// before any solve, for passage and transient alike, instead of
// returning NaN values. "talbot", whose contour left the half-plane, is
// no longer a method at all.
func TestTransientRejectsContourLeavingHalfPlane(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0.5, 2}
	passage, err := m.NewPassageSpec("", []int{2}, ts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	transient, err := m.NewTransientSpec("", []int{2}, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*hydra.SolveSpec{passage, transient} {
		spec.Points[7] = complex(-0.5, 3)
		vr, err := m.RunSpec(spec, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "Re s ≤ 0") || !strings.Contains(err.Error(), "s-point 7") {
			t.Fatalf("%v spec with a left half-plane point: err = %v, want a Re s ≤ 0 rejection naming the point", spec.Quantity, err)
		}
		if vr != nil {
			t.Errorf("%v: rejected spec returned a run", spec.Quantity)
		}
	}
	if _, err := m.TransientDistribution([]int{0}, []int{2}, ts, &hydra.Options{Method: "talbot"}); err == nil ||
		!strings.Contains(err.Error(), "unknown inversion method") {
		t.Errorf("talbot transient: err = %v, want an unknown-method error", err)
	}
	if _, err := m.TransientDistribution([]int{0}, []int{2}, ts, nil); err != nil {
		t.Errorf("euler transient on the same model: %v", err)
	}
}

// TestInvalidInverterOverrideIsAnError checks that an Euler or Laguerre
// override with unusable parameters fails the request with a readable
// error instead of panicking inside the inverter.
func TestInvalidInverterOverrideIsAnError(t *testing.T) {
	m, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts *hydra.Options
	}{
		{"euler A<0", &hydra.Options{Euler: lt.Euler{A: -1, M: 21, E: 11}}},
		{"euler A=NaN", &hydra.Options{Euler: lt.Euler{A: math.NaN(), M: 21, E: 11}}},
		{"euler E<0", &hydra.Options{Method: "euler", Euler: lt.Euler{A: 18.4, M: 21, E: -1}}},
		{"laguerre Coeffs>N/2", &hydra.Options{Method: "laguerre", Laguerre: lt.Laguerre{N: 40, Coeffs: 30}}},
		{"laguerre sigma<0", &hydra.Options{Method: "laguerre", Laguerre: lt.Laguerre{N: 400, Coeffs: 200, Sigma: -1}}},
		{"laguerre R>=1", &hydra.Options{Method: "laguerre", Laguerre: lt.Laguerre{N: 400, Coeffs: 200, R: 1.5}}},
		{"auto laguerre", &hydra.Options{Method: "auto", Laguerre: lt.Laguerre{N: 2, Coeffs: 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				_, err = m.PassageDensity([]int{0}, []int{2}, []float64{1}, c.opts)
			}()
			if err == nil || !strings.Contains(err.Error(), "lt: ") {
				t.Errorf("err = %v, want an lt parameter error", err)
			}
		})
	}
}

func TestAutoMethodSelectsPerSmoothness(t *testing.T) {
	// Smooth (all-exponential) passage: auto must match Laguerre (and
	// hence Euler) closely.
	smooth, err := hydra.LoadSpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	ms := smooth.Measures()[0]
	auto, err := smooth.PassageDensity(ms.Sources, ms.Targets, ms.Times, &hydra.Options{Method: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := smooth.PassageDensity(ms.Sources, ms.Targets, ms.Times, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Values {
		if math.Abs(auto.Values[i]-ref.Values[i]) > 1e-5 {
			t.Errorf("smooth auto at t=%v: %v vs %v", ref.Times[i], auto.Values[i], ref.Values[i])
		}
	}

	// Discontinuous: a deterministic delay. Auto must fall back to Euler
	// and stay accurate where Laguerre alone would ring.
	det := `
\model{
  \statevector{ \type{short}{a, b} }
  \initial{ a = 1; b = 0; }
  \transition{go}{ \condition{a > 0} \action{next->a = a-1; next->b = b+1;} \sojourntimeLT{detLT(1, s) } }
  \transition{back}{ \condition{b > 0} \action{next->b = b-1; next->a = a+1;} \sojourntimeLT{expLT(1,s)} }
}
`
	dm, err := hydra.LoadSpec(det)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0.5, 2}
	cdfAuto, err := dm.PassageCDF([]int{0}, []int{1}, ts, &hydra.Options{Method: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	// True CDF of det(1): step at t=1.
	wants := []float64{0, 1}
	for i := range ts {
		if math.Abs(cdfAuto.Values[i]-wants[i]) > 5e-3 {
			t.Errorf("det auto CDF(%v) = %v, want %v", ts[i], cdfAuto.Values[i], wants[i])
		}
	}
}

func TestStateMeasureThroughFacade(t *testing.T) {
	src := quickSpec + `
\statemeasure{busy_frac}{ \condition{stage1 > 0} }
`
	m, err := hydra.LoadSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	sms := m.StateMeasures()
	if len(sms) != 1 || sms[0].Name != "busy_frac" {
		t.Fatalf("state measures = %+v", sms)
	}
	got, err := m.SteadyStateProbability(sms[0].States)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle through exp(2), exp(5), exp(1): fraction of time in stage1 is
	// (1/5)/(1/2 + 1/5 + 1) = 0.2/1.7.
	want := 0.2 / 1.7
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("P(stage1>0) = %v, want %v", got, want)
	}
}

// TestSourceWeightsConcurrentFirstCallers is the server's access pattern:
// request handlers resolving source weights on a fresh model at once.
// The lazily cached steady state must be solved once and seen whole by
// every caller (run under -race).
func TestSourceWeightsConcurrentFirstCallers(t *testing.T) {
	m, err := hydra.VotingSystem(0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, m.NumStates())
	for i := range all {
		all[i] = i
	}
	const callers = 4
	pis := make([][]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, errs[g] = m.SourceWeights([]int{0, 1}); errs[g] != nil {
				return
			}
			_, pis[g], errs[g] = m.SourceWeights(all)
		}()
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		for i := range pis[0] {
			if pis[g][i] != pis[0][i] {
				t.Fatalf("caller %d sees π[%d] = %v, caller 0 sees %v", g, i, pis[g][i], pis[0][i])
			}
		}
	}
}
