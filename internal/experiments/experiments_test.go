package experiments

import (
	"math"
	"testing"
)

func TestTable1SmallSystemsExact(t *testing.T) {
	rows, err := Table1(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.States != r.Want {
			t.Errorf("system %d: %d states, paper %d", r.System, r.States, r.Want)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rows, err := Table2(Table2Config{CC: 12, MM: 4, NN: 2, TPoints: 2, Measured: []int{1}, Projected: []int{1, 8, 16, 32}})
	if err != nil {
		t.Fatal(err)
	}
	// Projected speedup must be monotone non-decreasing in workers and
	// efficiency non-increasing — the Table 2 shape. The projections are
	// LPT schedules of *measured* per-point times, so tiny inversions are
	// expected: timing noise moves each duration, and w·makespan(w) can
	// genuinely dip when an extra worker balances the schedule better.
	// The tolerance admits that jitter while still catching real shape
	// violations, which are an order of magnitude larger.
	const slack = 1e-2
	var lastSpeed, lastEff float64 = 0, 2
	for _, r := range rows {
		if r.Mode != "projected" {
			continue
		}
		if r.Speedup < lastSpeed*(1-slack) {
			t.Errorf("speedup not monotone at %d workers: %v after %v", r.Workers, r.Speedup, lastSpeed)
		}
		if r.Efficiency > lastEff+slack {
			t.Errorf("efficiency increased at %d workers: %v after %v", r.Workers, r.Efficiency, lastEff)
		}
		if r.Efficiency > 1+1e-9 {
			t.Errorf("efficiency above 1 at %d workers: %v", r.Workers, r.Efficiency)
		}
		lastSpeed, lastEff = r.Speedup, r.Efficiency
	}
	if lastSpeed <= 1 {
		t.Errorf("32-worker projected speedup %v, want > 1", lastSpeed)
	}
}

func TestFig4AnalyticTracksSimulation(t *testing.T) {
	pts, err := Fig4(FigOptions{System: 0, Points: 12, Replications: 8000})
	if err != nil {
		t.Fatal(err)
	}
	// The curves must agree at plot resolution: sup-norm of the density
	// gap below 20% of the analytic peak.
	var peak, worst float64
	for _, p := range pts {
		if p.Analytic > peak {
			peak = p.Analytic
		}
	}
	for _, p := range pts {
		if d := math.Abs(p.Analytic - p.Simulated); d > worst {
			worst = d
		}
	}
	if peak <= 0 {
		t.Fatal("flat analytic density")
	}
	if worst > 0.2*peak {
		t.Errorf("worst analytic/simulated gap %v exceeds 20%% of peak %v", worst, peak)
	}
}

func TestFig6LowProbabilityRegion(t *testing.T) {
	pts, err := Fig6(FigOptions{System: 0, Points: 10, Replications: 6000})
	if err != nil {
		t.Fatal(err)
	}
	var peak, worst float64
	for _, p := range pts {
		if p.Analytic > peak {
			peak = p.Analytic
		}
		if d := math.Abs(p.Analytic - p.Simulated); d > worst {
			worst = d
		}
	}
	if peak <= 0 {
		t.Fatal("flat failure density")
	}
	// The histogram carries few samples in the rare-event head; allow a
	// looser 35% band.
	if worst > 0.35*peak {
		t.Errorf("worst gap %v exceeds 35%% of peak %v", worst, peak)
	}
}

func TestFig7ConvergesToSteadyState(t *testing.T) {
	res, err := Fig7(FigOptions{System: 0, Points: 8})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Transient[len(res.Transient)-1]
	if math.Abs(last-res.SteadyState) > 0.02+0.25*res.SteadyState {
		t.Errorf("transient tail %v far from steady state %v", last, res.SteadyState)
	}
	for i, v := range res.Transient {
		if v < -1e-6 || v > 1 {
			t.Errorf("transient[%d] = %v outside [0,1]", i, v)
		}
	}
}
