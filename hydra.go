// Package hydra computes passage-time densities, quantiles and transient
// state distributions for large structurally-unrestricted semi-Markov
// processes, reproducing the method of Bradley, Dingle, Harrison and
// Knottenbelt, "Distributed Computation of Passage Time Quantiles and
// Transient State Distributions in Large Semi-Markov Models"
// (IPDPS 2003).
//
// Models are specified either in the extended DNAmaca language of §5
// (LoadSpec) or picked from the paper's built-in distributed voting
// system family (VotingSystem). Analysis proceeds exactly as in the
// paper: the state space of the semi-Markov stochastic Petri net is
// generated, the Laplace transform of the requested measure is evaluated
// at the s-points demanded by a numerical inverter (Euler or Laguerre),
// and the inverter recovers the density, distribution or transient
// curve. The transform evaluations are embarrassingly parallel and can
// be spread over in-process workers or TCP workers with disk
// checkpointing (see Job, ServeMaster and RunWorker).
package hydra

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"

	"hydra/internal/dnamaca"
	"hydra/internal/dtmc"
	"hydra/internal/petri"
	"hydra/internal/smp"
	"hydra/internal/voting"
)

// Marking is a vector of place token counts; state predicates receive
// markings in the order places were declared.
type Marking = petri.Marking

// Model is an explored semi-Markov model ready for analysis.
type Model struct {
	ss            *petri.StateSpace
	compiled      *dnamaca.Compiled // non-nil when loaded from a specification
	fingerprint   string            // content-derived identity (see Fingerprint)
	measures      []Measure
	stateMeasures []StateMeasure

	// piMu guards pi, the lazily computed embedded-chain steady state.
	// It is held across the solve, so concurrent first callers wait for
	// one solve instead of each running their own.
	piMu sync.Mutex
	pi   []float64
}

// SpecFingerprint derives a model fingerprint from DNAmaca source text.
// It is the identity a fleet routes jobs by and the ID the hydra-serve
// registry stores models under, so a hydra-worker that loads the same
// spec file as the service advertises exactly the ID the service's jobs
// carry.
func SpecFingerprint(src string) string {
	sum := sha256.Sum256([]byte(src))
	return "m-" + hex.EncodeToString(sum[:8])
}

// VotingFingerprint is the fingerprint of a built-in Table 1 system.
func VotingFingerprint(system int) string {
	return fmt.Sprintf("voting-%d", system)
}

// VotingConfigFingerprint is the fingerprint of a custom-size voting
// system.
func VotingConfigFingerprint(cc, mm, nn int) string {
	return fmt.Sprintf("voting-%d-%d-%d", cc, mm, nn)
}

// Fingerprint returns the model's content-derived identity: the spec
// hash for LoadSpec models, the configuration name for voting models.
// Jobs built from this model carry it so a worker fleet can cross-check
// that master and worker hold the same model (the v1 protocol checked
// only the state count).
func (m *Model) Fingerprint() string { return m.fingerprint }

// StateMeasure is a resolved \statemeasure block: the long-run
// probability of a marking condition, evaluated through
// SteadyStateProbability.
type StateMeasure struct {
	Name   string
	States []int
}

// MeasureKind distinguishes passage-time and transient measures.
type MeasureKind int

const (
	// Passage is a first-passage-time measure (density/CDF/quantile).
	Passage MeasureKind = iota
	// Transient is a point-wise state-distribution measure.
	Transient
)

// Measure is an analysis request resolved against the state space,
// typically originating from a \passage or \transient block.
type Measure struct {
	Kind    MeasureKind
	Name    string
	Sources []int
	Targets []int
	Times   []float64
	Method  string // "euler" or "laguerre"
}

// ExploreLimit bounds state-space generation (markings).
const ExploreLimit = 5_000_000

// LoadSpec parses and compiles an extended-DNAmaca specification,
// explores its state space, and resolves any measure blocks.
func LoadSpec(src string) (*Model, error) {
	spec, err := dnamaca.Parse(src)
	if err != nil {
		return nil, err
	}
	compiled, err := dnamaca.Compile(spec)
	if err != nil {
		return nil, err
	}
	ss, err := petri.Explore(compiled.Net, petri.ExploreOptions{MaxStates: ExploreLimit})
	if err != nil {
		return nil, err
	}
	m := &Model{ss: ss, compiled: compiled, fingerprint: SpecFingerprint(src)}
	for i, ms := range spec.Passages {
		sources, targets, ts, err := compiled.ResolveMeasure(ms, ss)
		if err != nil {
			return nil, fmt.Errorf("hydra: passage block %d: %w", i+1, err)
		}
		m.measures = append(m.measures, Measure{
			Kind: Passage, Name: fmt.Sprintf("passage-%d", i+1),
			Sources: sources, Targets: targets, Times: ts, Method: ms.Method,
		})
	}
	for i, ms := range spec.Transients {
		sources, targets, ts, err := compiled.ResolveMeasure(ms, ss)
		if err != nil {
			return nil, fmt.Errorf("hydra: transient block %d: %w", i+1, err)
		}
		m.measures = append(m.measures, Measure{
			Kind: Transient, Name: fmt.Sprintf("transient-%d", i+1),
			Sources: sources, Targets: targets, Times: ts, Method: ms.Method,
		})
	}
	for _, sm := range spec.StateMeasures {
		states, err := compiled.ResolveStateMeasure(sm, ss)
		if err != nil {
			return nil, err
		}
		m.stateMeasures = append(m.stateMeasures, StateMeasure{Name: sm.Name, States: states})
	}
	return m, nil
}

// StateMeasures returns the resolved \statemeasure blocks of the
// specification (empty for programmatic models).
func (m *Model) StateMeasures() []StateMeasure { return m.stateMeasures }

// LoadSpecFile is LoadSpec reading from a file.
func LoadSpecFile(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hydra: reading specification: %w", err)
	}
	return LoadSpec(string(b))
}

// VotingSystem builds one of the paper's six voting-system
// configurations (Table 1): 0 ≤ system ≤ 5.
func VotingSystem(system int) (*Model, error) {
	ss, err := voting.BuildSystem(system, voting.DefaultDurations(), petri.ExploreOptions{MaxStates: ExploreLimit})
	if err != nil {
		return nil, err
	}
	return &Model{ss: ss, fingerprint: VotingFingerprint(system)}, nil
}

// VotingConfig builds a voting system with a custom size.
func VotingConfig(cc, mm, nn int) (*Model, error) {
	ss, err := voting.Build(voting.Config{CC: cc, MM: mm, NN: nn},
		voting.DefaultDurations(), petri.ExploreOptions{MaxStates: ExploreLimit})
	if err != nil {
		return nil, err
	}
	return &Model{ss: ss, fingerprint: VotingConfigFingerprint(cc, mm, nn)}, nil
}

// NumStates returns the size of the explored state space.
func (m *Model) NumStates() int { return m.ss.NumStates() }

// SMP exposes the underlying semi-Markov process (primarily for the
// command-line tools and benchmarks).
func (m *Model) SMP() *smp.Model { return m.ss.Model }

// InitialState returns the index of the initial marking (always 0).
func (m *Model) InitialState() int { return 0 }

// States returns the indices of all states whose marking satisfies pred.
func (m *Model) States(pred func(Marking) bool) []int {
	return m.ss.FindStates(pred)
}

// StateMarking returns the marking of a state index.
func (m *Model) StateMarking(i int) Marking { return m.ss.States[i] }

// PlaceIndex resolves a place name to its marking position, or -1.
func (m *Model) PlaceIndex(name string) int { return m.ss.Net.PlaceIndex(name) }

// Measures returns the measures resolved from the specification's
// \passage and \transient blocks (empty for programmatic models).
func (m *Model) Measures() []Measure { return m.measures }

// steadyState lazily computes and caches the embedded chain's stationary
// vector. It is safe for concurrent use.
func (m *Model) steadyState() ([]float64, error) {
	m.piMu.Lock()
	defer m.piMu.Unlock()
	if m.pi != nil {
		return m.pi, nil
	}
	pi, err := dtmc.SteadyStateGS(m.ss.Model.EmbeddedDTMC(), dtmc.Options{SkipIrreducibilityCheck: true})
	if err != nil {
		return nil, fmt.Errorf("hydra: embedded-chain steady state: %w", err)
	}
	m.pi = pi
	return pi, nil
}

// SteadyStateProbability returns the long-run probability that the SMP
// occupies one of the given states: the embedded chain's stationary
// vector reweighted by mean sojourn times (the horizontal line of
// Fig. 7). It requires an irreducible model.
func (m *Model) SteadyStateProbability(states []int) (float64, error) {
	pi, err := m.steadyState()
	if err != nil {
		return 0, err
	}
	ss := m.ss.Model.SteadyState(pi)
	var total float64
	for _, i := range states {
		if i < 0 || i >= len(ss) {
			return 0, fmt.Errorf("hydra: state %d out of range", i)
		}
		total += ss[i]
	}
	return total, nil
}
