package experiment

// Experiment is one entry of the paper's evaluation: an id (the value of
// peas-bench -exp and the BenchmarkExperiments sub-benchmark name), the
// part of the paper it reproduces, and the function that regenerates its
// table.
type Experiment struct {
	ID      string
	Section string
	Run     func(*Env) (*Table, error)
}

// Env is what an experiment runs under: the sweep options (Seed and
// Parallel apply to every experiment; Runs and the grids only to the two
// sweeps, the studies fix their own seed counts) plus the results of the
// sweeps already run through it. One Env serves one
// pass over Experiments and is not safe for concurrent use; the
// concurrency is inside each experiment, bounded by Parallel.
type Env struct {
	Options
	// Quick replaces the sweep grids with three points each and trims the
	// per-seed studies, for a pass that takes seconds.
	Quick bool

	// The sweeps are memoised because one sweep's runs yield several
	// figures: rerunning 25 full-lifetime simulations per figure would
	// quadruple the cost of regenerating §5.2 for identical numbers.
	deployment *DeploymentSweepResult
	failure    *FailureSweepResult
}

func (e *Env) deploymentSweep() (_ *DeploymentSweepResult, err error) {
	if e.deployment == nil {
		opts := e.Options
		if e.Quick {
			opts.Deployments = []int{160, 480, 800}
		}
		e.deployment, err = DeploymentSweep(opts)
	}
	return e.deployment, err
}

func (e *Env) failureSweep() (_ *FailureSweepResult, err error) {
	if e.failure == nil {
		opts := e.Options
		if e.Quick {
			opts.FailureRates = []float64{5.33, 26.66, 48}
		}
		e.failure, err = FailureSweep(opts)
	}
	return e.failure, err
}

// figure adapts a renderer of a memoised sweep's result into an experiment.
func figure[R any](sweep func(*Env) (*R, error), render func(*R) *Table) func(*Env) (*Table, error) {
	return func(e *Env) (*Table, error) {
		res, err := sweep(e)
		if err != nil {
			return nil, err
		}
		return render(res), nil
	}
}

// experiments is the single index of the evaluation, in print order.
// peas-bench, the facade, BenchmarkExperiments and the tests all range it;
// DESIGN.md §4 maps each id to the paper's claim.
var experiments = []Experiment{
	// §5.2 varying-population sweep: coverage lifetime, delivery lifetime,
	// wakeups and energy overhead vs. deployment size.
	{"fig9", "§5.2", figure((*Env).deploymentSweep, (*DeploymentSweepResult).Fig9)},
	{"fig10", "§5.2", figure((*Env).deploymentSweep, (*DeploymentSweepResult).Fig10)},
	{"fig11", "§5.2", figure((*Env).deploymentSweep, (*DeploymentSweepResult).Fig11)},
	{"table1", "§5.2", figure((*Env).deploymentSweep, (*DeploymentSweepResult).Table1)},
	// §5.3 robustness sweep: the same metrics vs. failure rate at 480 nodes.
	{"fig12", "§5.3", figure((*Env).failureSweep, (*FailureSweepResult).Fig12)},
	{"fig13", "§5.3", figure((*Env).failureSweep, (*FailureSweepResult).Fig13)},
	{"fig14", "§5.3", figure((*Env).failureSweep, (*FailureSweepResult).Fig14)},
	// Estimator accuracy vs. window size k.
	{"estimator", "§2.2.1", estimatorStudy},
	// Working-set separation, nearest-neighbor bound and connectivity.
	{"connectivity", "§3", connectivityStudy},
	// Replacement gaps, PEAS vs. synchronized sleeping (Figures 4-5).
	{"gaps", "§2.1.1", gapStudy},
	// Multi-PROBE loss compensation.
	{"loss", "§4", lossStudy},
	// Redundant-worker turn-off extension.
	{"turnoff", "§4", turnoffStudy},
	// Uniform vs. even vs. clustered deployments.
	{"distribution", "§4", distributionStudy},
	// Variable transmission power vs. fixed power with threshold filtering.
	{"fixedpower", "§4", fixedPowerStudy},
	// Probing range Rp vs. working density and the Theorem 3.1 condition.
	{"rpsweep", "§2.1/§3", rpSweepStudy},
	// Boot-up time to 90% 4-coverage vs. the initial probing rate λ0.
	{"boot", "§2.1", bootStudy},
	// GRAB substrate: mesh width vs. delivery under lossy data hops.
	{"mesh", "GRAB", meshStudy},
	// Packet-level GRAB forwarding vs. the connectivity-level model the
	// lifetime sweeps use.
	{"grabcheck", "GRAB", grabCheckStudy},
	// Attenuation irregularity: poorer-reception areas keep denser workers.
	{"irregularity", "§4", irregularityStudy},
	// Mobile-target detection quality vs. the tolerance knob λd.
	{"tracking", "§2.2.1", trackingStudy},
	// Ablation of each deviation from a literal paper reading.
	{"deviation", "DESIGN §5", deviationStudy},
	// The probing rule in a 3-D volume.
	{"threed", "§3 footnote", threeDStudy},
	// Empirical check of Lemma 3.1's cell-occupancy premise.
	{"density", "§3 Lemma 3.1", densityStudy},
}

// Experiments returns the evaluation's experiments in print order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }
