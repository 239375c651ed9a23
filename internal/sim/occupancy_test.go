package sim

import (
	"math"
	"math/rand"
	"testing"

	"hydra/internal/dist"
	"hydra/internal/dtmc"
	"hydra/internal/smp"
)

// TestLongRunOccupancyMatchesSMPSteadyState validates the time-average
// steady-state formula π^SMP_i ∝ π_i·m_i (embedded stationary vector
// reweighted by mean sojourns) against a long simulated trajectory —
// the identity behind the Fig. 7 steady-state line.
func TestLongRunOccupancyMatchesSMPSteadyState(t *testing.T) {
	b := smp.NewBuilder(4)
	b.Add(0, 1, 0.7, dist.NewExponential(4)) // short stays in 0
	b.Add(0, 2, 0.3, dist.NewExponential(4))
	b.Add(1, 3, 1, dist.NewUniform(1, 3)) // long stays in 1
	b.Add(2, 3, 1, dist.NewDeterministic(0.5))
	b.Add(3, 0, 1, dist.NewErlang(2, 2))
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := dtmc.SteadyStateGS(m.EmbeddedDTMC(), dtmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := m.SteadyState(pi)

	// Long trajectory with per-state occupancy accounting.
	s := New(m)
	samplers := s.buildSamplers()
	rng := rand.New(rand.NewSource(123))
	occupancy := make([]float64, m.N())
	state := 0
	var total float64
	const jumps = 2_000_000
	for i := 0; i < jumps; i++ {
		next, dt := step(s, samplers, rng, state)
		occupancy[state] += dt
		total += dt
		state = next
	}
	for i := range occupancy {
		got := occupancy[i] / total
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("state %d occupancy %v vs steady state %v", i, got, want[i])
		}
	}
}
