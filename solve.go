package quasispecies

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/errorclass"
	"repro/internal/landscape"
	"repro/internal/span"
	"repro/internal/vec"
)

// Method selects the solver backend.
type Method int

const (
	// MethodAuto picks the exact error-class reduction when the landscape
	// permits it, Pi(Fmmp) otherwise.
	MethodAuto Method = iota
	// MethodFmmp is the paper's fast solver: power iteration on the
	// Θ(N·log₂N) implicit product. Under the uniform-rate process it starts
	// by default from a class-projected start, not the paper's fitness
	// start (Model.startVector).
	MethodFmmp
	// MethodLanczos is the symmetric Krylov ladder of the sweep engine
	// (core.AdaptiveSolve forced to Chebyshev) on F^½QF^½: a self-stopping
	// Lanczos gap probe, Chebyshev-filtered restarts from its top Ritz
	// vector, then shift-invert Lanczos — fewer matrix products near the
	// error threshold, at the cost of storing Krylov vectors. It never
	// runs power; the start (WithStart, else Model.startVector's default)
	// seeds the gap probe. It needs a symmetric mutation process (Q = Qᵀ)
	// with a non-negative spectral floor (every site Stay0 = Stay1 in
	// (½, 1)) and returns ErrInvalidModel otherwise.
	MethodLanczos
	// MethodReduced forces the exact (ν+1)×(ν+1) error-class reduction
	// (fails for landscapes without class structure).
	MethodReduced
	// MethodArnoldi is restarted Arnoldi iteration on Q·F — the Krylov
	// solver that remains applicable when generalized (asymmetric)
	// mutation makes W non-symmetrizable and Lanczos unusable.
	MethodArnoldi
)

func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodFmmp:
		return "Pi(Fmmp)"
	case MethodLanczos:
		return "Lanczos(Fmmp)"
	case MethodReduced:
		return "reduced"
	case MethodArnoldi:
		return "Arnoldi(Fmmp)"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Model is a configured quasispecies problem ready to solve. Create with
// New; a Model is safe for repeated Solve calls but not for concurrent use.
type Model struct {
	mut  Mutation
	land Landscape

	method   Method
	tol      float64
	tolSet   bool
	maxIter  int
	useShift bool
	workers  int // ≥ 1 once configured
	start    []float64
	observer SolveObserver
	dev      *device.Device

	// Operator cache: the Fmmp operators (and their landscape diagonals)
	// are immutable once built, so repeated Solve/Residual calls on the
	// same Model reuse them instead of re-materializing Θ(N) diagonals.
	opRight *core.FmmpOperator
	opSym   *core.FmmpOperator
	// residScratch backs Residual's product vector across calls.
	residScratch []float64
}

// fmmpOperator returns the cached Fmmp operator for the formulation,
// building it on first use.
func (mo *Model) fmmpOperator(form core.Formulation) (*core.FmmpOperator, error) {
	switch form {
	case core.Right:
		if mo.opRight == nil {
			op, err := core.NewFmmpOperator(mo.mut.q, mo.land.l, core.Right, mo.dev)
			if err != nil {
				return nil, err
			}
			mo.opRight = op
		}
		return mo.opRight, nil
	case core.Symmetric:
		if mo.opSym == nil {
			op, err := core.NewFmmpOperator(mo.mut.q, mo.land.l, core.Symmetric, mo.dev)
			if err != nil {
				return nil, err
			}
			mo.opSym = op
		}
		return mo.opSym, nil
	default:
		return nil, fmt.Errorf("%w: no cached operator for formulation %d", ErrInvalidModel, int(form))
	}
}

// Option configures a Model.
type Option func(*Model) error

// WithMethod selects the solver backend (default MethodAuto).
func WithMethod(m Method) Option {
	return func(mo *Model) error {
		if m < MethodAuto || m > MethodArnoldi {
			return fmt.Errorf("quasispecies: unknown method %d", int(m))
		}
		mo.method = m
		return nil
	}
}

// WithTolerance sets the residual threshold τ on ‖W·x − λ·x‖₂, which
// must be positive and finite. The default adapts to the problem's
// floating-point floor, max(1e−12, 64·ε·f_max·√N), so large chain lengths
// do not request an unattainable residual.
func WithTolerance(tol float64) Option {
	return func(mo *Model) error {
		if !(tol > 0) || math.IsInf(tol, 1) {
			return fmt.Errorf("quasispecies: tolerance %g must be positive and finite", tol)
		}
		mo.tol = tol
		mo.tolSet = true
		return nil
	}
}

// WithMaxIterations caps the iteration count (default 500000).
func WithMaxIterations(n int) Option {
	return func(mo *Model) error {
		if n <= 0 {
			return fmt.Errorf("quasispecies: max iterations %d must be positive", n)
		}
		mo.maxIter = n
		return nil
	}
}

// WithShift toggles the conservative convergence shift µ ≤ λ_min(W)
// (default on): (1−2p)^ν·f_min for the uniform process,
// Π_k(Stay0_k + Stay1_k − 1)·f_min for a per-site one whose factors all
// mutate both ways and have Stay0 + Stay1 > 1, and 0 otherwise
// (core.ConservativeShift).
func WithShift(enabled bool) Option {
	return func(mo *Model) error {
		mo.useShift = enabled
		return nil
	}
}

// WithWorkers runs the solver's kernels on a pool of n worker goroutines
// (the paper's GPU analogue); n <= 0 selects all available cores, n == 1
// is serial (default).
func WithWorkers(n int) Option {
	return func(mo *Model) error {
		mo.workers = n
		return nil
	}
}

// WithStart seeds the iterative solvers with the given concentration
// vector (length 2^ν, Right-form) instead of the default start — the
// class-projected start under the uniform-rate process, the fitness start
// otherwise (Model.startVector) — e.g. the
// Concentrations of a checkpointed Solution, so an interrupted sweep
// resumes where it stopped. The slice is copied at solve time and never
// mutated. The reduced method, which is direct, ignores it.
func WithStart(x []float64) Option {
	return func(mo *Model) error {
		if len(x) == 0 {
			return fmt.Errorf("quasispecies: start vector must be non-empty")
		}
		mo.start = x
		return nil
	}
}

// SolveObserver receives the convergence trace of a power-method or
// Lanczos solve: Step after every residual check and Event at lifecycle
// transitions ("start", "converged", "stagnated", …), once per gear a
// Lanczos solve runs. obs.Trace recorders
// satisfy it; so does core.Observer, which it mirrors. The Arnoldi and
// reduced backends do not report traces and ignore the observer.
type SolveObserver interface {
	Step(iter int, lambda, residual float64)
	Event(event string, iter int, lambda, residual float64)
}

// WithObserver attaches a convergence-trace observer to the model's solves
// (see SolveObserver). Observing is passive: results are bit-identical
// with and without an observer.
func WithObserver(o SolveObserver) Option {
	return func(mo *Model) error {
		mo.observer = o
		return nil
	}
}

// New assembles a model from a mutation process and a fitness landscape
// of the same chain length.
func New(m Mutation, l Landscape, opts ...Option) (*Model, error) {
	if !m.valid() || !l.valid() {
		return nil, fmt.Errorf("%w: use the package constructors for Mutation and Landscape", ErrInvalidModel)
	}
	if m.ChainLen() != l.ChainLen() {
		return nil, fmt.Errorf("%w: mutation ν = %d but landscape ν = %d",
			ErrInvalidModel, m.ChainLen(), l.ChainLen())
	}
	mo, err := configure(opts)
	if err != nil {
		return nil, err
	}
	mo.mut, mo.land = m, l
	if mo.workers != 1 {
		mo.dev = device.New(mo.workers)
	}
	return mo, nil
}

// configure returns the option defaults with opts applied, the worker
// count resolved: WithWorkers' n ≤ 0 becomes GOMAXPROCS. New and
// SolveKronecker both start here.
func configure(opts []Option) (*Model, error) {
	mo := &Model{method: MethodAuto, maxIter: 500000, useShift: true, workers: 1}
	for _, o := range opts {
		if err := o(mo); err != nil {
			return nil, err
		}
	}
	if mo.workers <= 0 {
		mo.workers = runtime.GOMAXPROCS(0)
	}
	return mo, nil
}

// ChainLen returns ν.
func (mo *Model) ChainLen() int { return mo.mut.ChainLen() }

// Dim returns N = 2^ν.
func (mo *Model) Dim() int { return mo.mut.q.Dim() }

// Solution is a solved quasispecies.
type Solution struct {
	// Lambda is the dominant eigenvalue of W = Q·F — the mean fitness of
	// the stationary population.
	Lambda float64
	// Concentrations holds the relative concentration xᵢ of every
	// sequence, Σxᵢ = 1. Nil when the reduced method solved a chain too
	// long to materialize, ν > 30; Gamma is always populated.
	Concentrations []float64
	// Gamma holds the cumulative error-class concentrations
	// [Γ_0] … [Γ_ν] around the master sequence (the Figure 1 curves).
	Gamma []float64
	// Iterations used by the underlying eigensolver.
	Iterations int
	// Residual is the final ‖W·x − λ·x‖₂ (0 reported by the reduced
	// method, which is exact to dense-solver precision).
	Residual float64
	// Method that produced the solution.
	Method Method
}

// MasterConcentration returns x₀, the stationary concentration of the
// error-free master sequence.
func (s *Solution) MasterConcentration() float64 {
	if s.Concentrations != nil {
		return s.Concentrations[0]
	}
	return s.Gamma[0] // Γ₀ = {master} alone
}

// Solve computes the quasispecies distribution: SolveContext with a
// context that is never cancelled.
func (mo *Model) Solve() (*Solution, error) {
	return mo.SolveContext(context.Background())
}

// SolveContext is Solve with cooperative cancellation. A context that is
// already cancelled or past its deadline returns ctx.Err() before any
// work. The power-method backend (Fmmp) also checks ctx at every
// residual evaluation and abort with ctx.Err() when it is cancelled or
// times out; large-ν solves can run for minutes, and this is the supported
// way to bound them. The reduced, Lanczos and Arnoldi backends check ctx
// only before they start.
func (mo *Model) SolveContext(ctx context.Context) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The facade span brackets everything a solve does — operator build,
	// eigensolve, concentration post-processing — so the per-phase table
	// accounts setup time that the core-layer solve span cannot see.
	sp := span.Begin(span.LayerFacade, "solve")
	sol, err := mo.solve(ctx)
	span.End(sp, int64(mo.Dim()), 0)
	return sol, err
}

// solve routes the solve. Auto takes the reduction when classProblem
// finds one and Fmmp otherwise, so the landscape's ϕ table is built, and
// an explicit vector scanned for class structure, once per solve.
func (mo *Model) solve(ctx context.Context) (*Solution, error) {
	method := mo.method
	var p float64
	var phi []float64
	if method == MethodAuto || method == MethodReduced {
		var err error
		p, phi, err = mo.classProblem()
		switch {
		case err == nil:
			method = MethodReduced
		case method == MethodReduced:
			return nil, err
		default:
			method = MethodFmmp
		}
	}
	switch method {
	case MethodReduced:
		return mo.solveReduced(p, phi)
	case MethodFmmp:
		return mo.solveFmmp(ctx)
	case MethodLanczos:
		return mo.solveLanczos()
	case MethodArnoldi:
		return mo.solveArnoldi()
	default:
		return nil, fmt.Errorf("%w: unknown method %v", ErrInvalidModel, method)
	}
}

// solveFmmp runs the power method on the Right-form Fmmp operator. Only a
// cancellable ctx installs the cancellation Monitor, so Solve runs the bare
// iteration.
func (mo *Model) solveFmmp(ctx context.Context) (*Solution, error) {
	op, err := mo.fmmpOperator(core.Right)
	if err != nil {
		return nil, err
	}
	start, err := mo.startVector(op)
	if err != nil {
		return nil, err
	}
	popts := core.PowerOptions{
		Tol: mo.effectiveTol(), MaxIter: mo.maxIter,
		Start:    start,
		Dev:      mo.dev,
		Observer: mo.observer,
	}
	if mo.useShift {
		popts.Shift = core.ConservativeShift(mo.mut.q, mo.land.l)
	}
	if ctx.Done() != nil {
		popts.Monitor = func(int, float64, float64) bool { return ctx.Err() == nil }
	}
	res, err := core.PowerIteration(op, popts)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return mo.finishSolution(res.Lambda, res.Vector, res.Iterations, res.Residual, MethodFmmp)
}

// solveLanczos runs the sweep engine's forced Krylov ladder on one point:
// core.AdaptiveSolve with SolveChebyshev. The ladder needs F^½QF^½
// symmetric (Q = Qᵀ) for Lanczos and CG, and a known non-negative
// spectral floor of Q, so that ConservativeShift is a lower bound on its
// spectrum and a safe lower Chebyshev edge; a process that lacks either
// fails before the first matvec. The start is treated as a warm one
// (State.HavePrev): the gap probe starts from F^½·start, so a good start —
// the class-projected one, or a checkpointed Solution — shortens the
// probe. PrevLambda stays 0, below every Ritz value, so shift-invert keeps
// its cold shift f_max.
func (mo *Model) solveLanczos() (*Solution, error) {
	if _, ok := mo.mut.q.SpectralFloor(); !ok || !mo.mut.q.Symmetric() {
		return nil, fmt.Errorf("%w: MethodLanczos needs a symmetric mutation process with a non-negative spectral floor (every site Stay0 = Stay1 in (½, 1)); use MethodFmmp or MethodArnoldi", ErrInvalidModel)
	}
	opR, err := mo.fmmpOperator(core.Right)
	if err != nil {
		return nil, err
	}
	opS, err := mo.fmmpOperator(core.Symmetric)
	if err != nil {
		return nil, err
	}
	start, err := mo.startVector(opR)
	if err != nil {
		return nil, err
	}
	aopts := core.AdaptiveOptions{
		Method: core.SolveChebyshev,
		Tol:    mo.effectiveTol(), MaxIter: mo.maxIter,
		Start: start, Dev: mo.dev, Observer: mo.observer,
		State: &core.MethodState{HavePrev: true},
	}
	if mo.useShift {
		aopts.PowerShift = core.ConservativeShift(mo.mut.q, mo.land.l)
	}
	res, err := core.AdaptiveSolve(opR, opS, aopts)
	if err != nil {
		return nil, err
	}
	return mo.finishSolution(res.Lambda, res.Vector, res.Iterations, res.Residual, MethodLanczos)
}

func (mo *Model) finishSolution(lambda float64, x []float64, iters int, residual float64, method Method) (*Solution, error) {
	if err := core.Concentrations(x); err != nil {
		return nil, err
	}
	gamma, err := core.ClassConcentrations(mo.ChainLen(), x)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Lambda: lambda, Concentrations: x, Gamma: gamma,
		Iterations: iters, Residual: residual, Method: method,
	}, nil
}

func (mo *Model) solveArnoldi() (*Solution, error) {
	op, err := mo.fmmpOperator(core.Right)
	if err != nil {
		return nil, err
	}
	start, err := mo.startVector(op)
	if err != nil {
		return nil, err
	}
	res, err := core.Arnoldi(op, core.ArnoldiOptions{
		Tol: mo.effectiveTol(), Start: start,
	})
	if err != nil {
		return nil, err
	}
	return mo.finishSolution(res.Lambda, res.Vector, res.MatVecs, res.Residual, MethodArnoldi)
}

// startVector returns the Right-form starting iterate of every iterative
// facade solve, chosen in this one place: a copy of the WithStart vector
// when one was set; else the class-projected start where classStart
// builds one; else the fitness start. Both defaults are built from the
// Right-form op's materialized diagonal, so the landscape is materialized
// once per operator rather than again for every solve. The facade span
// "start" times the construction (a1 = N).
func (mo *Model) startVector(op *core.FmmpOperator) ([]float64, error) {
	sp := span.Begin(span.LayerFacade, "start")
	defer span.End(sp, int64(mo.Dim()), 0)
	if mo.start != nil {
		if len(mo.start) != mo.Dim() {
			return nil, fmt.Errorf("%w: start vector length %d, want %d",
				ErrInvalidModel, len(mo.start), mo.Dim())
		}
		return append([]float64(nil), mo.start...), nil
	}
	if x := mo.classStart(op); x != nil {
		return x, nil
	}
	return op.FitnessStart(), nil
}

// classStart returns the class-projected start of a Right-form solve, or
// nil where it does not apply. It departs from the paper's fitness start
// (§3; DESIGN, "Start vector"): the Perron vector of a landscape peaked at
// index 0 is a master plus a mutant cloud that is nearly a function of the
// Hamming class, and the §5.1 reduction solves that class shape in
// microseconds. classStart averages op's diagonal over the classes around
// index 0, solves the reduction at the same p and expands its eigenvector.
// It returns nil for a process without one uniform rate, for a landscape
// whose f₀ is below the upper bound of its Bounds (on every facade
// landscape that bound is the maximum, so index 0 is not the fittest), and
// on any reduction or expansion error: a start is a heuristic and must
// never fail a solve.
func (mo *Model) classStart(op *core.FmmpOperator) []float64 {
	p, ok := mo.mut.q.Uniform()
	if !ok {
		return nil
	}
	f := op.Fitness()
	if _, hi := mo.land.l.Bounds(); f[0] < hi {
		return nil
	}
	phi, err := errorclass.ClassMeans(f)
	if err != nil {
		return nil
	}
	red, err := errorclass.New(phi, p)
	if err != nil {
		return nil
	}
	res, err := red.Solve()
	if err != nil {
		return nil
	}
	x, err := errorclass.Expand(res.ClassVector)
	if err != nil {
		return nil
	}
	return x
}

// effectiveTol returns the user's tolerance, or the floating-point-floor
// default for this problem when none was set.
func (mo *Model) effectiveTol() float64 {
	if mo.tolSet {
		return mo.tol
	}
	return core.DefaultTolerance(mo.land.l)
}

// classProblem returns the uniform error rate p and the landscape's ϕ
// table of the §5.1 reduction, or why the model has none.
func (mo *Model) classProblem() (float64, []float64, error) {
	p, ok := mo.mut.q.Uniform()
	if !ok {
		return 0, nil, fmt.Errorf("%w: the error-class reduction requires the uniform-rate process", ErrInvalidModel)
	}
	phi, ok := landscape.ClassBased(mo.land.l)
	if !ok {
		return 0, nil, fmt.Errorf("%w: the error-class reduction requires a class-based landscape", ErrInvalidModel)
	}
	return p, phi, nil
}

// solveReduced solves the reduction of error rate p and class table phi.
func (mo *Model) solveReduced(p float64, phi []float64) (*Solution, error) {
	red, err := errorclass.New(phi, p)
	if err != nil {
		return nil, err
	}
	res, err := red.Solve()
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		Lambda: res.Lambda, Gamma: res.Gamma,
		Iterations: res.Iterations, Method: MethodReduced,
	}
	if mo.ChainLen() <= errorclass.MaxExpandChainLen {
		sp := span.Begin(span.LayerFacade, "expand")
		x, err := errorclass.Expand(res.ClassVector)
		span.End(sp, int64(mo.Dim()), 0)
		if err != nil {
			return nil, err
		}
		sol.Concentrations = x
	}
	return sol, nil
}

// Residual evaluates ‖W·x − λ·x‖₂ for an arbitrary candidate solution —
// the paper's accuracy measure R(λ̃, x̃), usable to cross-check any method
// against the fast exact operator.
func (mo *Model) Residual(lambda float64, x []float64) (float64, error) {
	if len(x) != mo.Dim() {
		return 0, fmt.Errorf("%w: vector length %d, want %d", ErrInvalidModel, len(x), mo.Dim())
	}
	op, err := mo.fmmpOperator(core.Right)
	if err != nil {
		return 0, err
	}
	if len(mo.residScratch) != len(x) {
		mo.residScratch = make([]float64, len(x))
	}
	w := mo.residScratch
	op.Apply(w, x)
	vec.AXPY(-lambda, x, w)
	return vec.Norm2(w), nil
}
