// The access-path planner behind PathAuto.
//
// The tutorial's thesis is that the kernel, not the DBA, should pick
// and refine the physical design as queries arrive. The engine's three
// access paths span that spectrum — plain scans, selection cracking,
// sideways cracking — and which one is cheapest depends on the
// workload: projection width, predicate overlap, how long the current
// focus lasts. The planner learns the answer per (table, column) from
// the queries themselves:
//
//   - Explore: the first queries are routed across the adaptive
//     candidate paths, interleaved so every path's observation window
//     covers the same slice of the stream, a few real queries each.
//     The interleaving is balanced per query shape — count-only reads,
//     which materialise nothing, against reads that copy rows — so on
//     a mixed stream every window holds the same mix of both. Without
//     that, an alternating count/select stream would hand every count
//     to one path and every select to the other, and the path scored
//     on counts alone (zero recurring work) would win whatever its
//     selects cost. Nothing is executed twice; exploration spends
//     ordinary queries, and the structures those probes build are
//     kept. The scan path is scored analytically (2n logical work per
//     query, exactly what the scan operator charges) instead of burning
//     real scans on probes. The decision stays one path per (table,
//     column), for both shapes.
//   - Exploit: the cheapest path by smoothed per-query RECURRING work
//     (cost.Counters.Recurring — materialisation that every repetition
//     of a query shape re-pays, as opposed to reorganisation that is
//     invested once and amortises) wins and receives all subsequent
//     traffic. Scoring on the recurring component is what makes short
//     races decisive: the paths differ structurally in how they
//     materialise results (sideways copies sequentially, cracking
//     reconstructs by random access), and that difference shows from
//     the first probes, while transient cracking costs — an order of
//     magnitude larger on fresh predicates — would bury it.
//   - Drift: during exploitation the planner keeps scoring the chosen
//     path. Recurring cost barely moves when the workload's focus
//     shifts (a re-crack is reorganisation), so drift detection fires
//     on genuine shape changes — wider predicates, heavier
//     projections, sustained for a window of queries — and re-opens
//     exploration, which is cheap the second time around because the
//     structures already exist.
//
// Scores are logical work counters rather than wall time: the counters
// are deterministic, already weight random access 4×, and are the
// currency every comparison in this repository uses. Wall time is
// recorded alongside for observability.
package engine

import (
	"math"
	"sort"
	"time"

	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/trace"
)

// PlannerOptions tunes the PathAuto planner.
type PlannerOptions struct {
	// ExplorePasses is how many real queries each adaptive candidate
	// path receives in the initial explore round (default 8). A path's
	// first probe pays its one-time structure construction and is
	// excluded from the steady-state estimate, so at least two probes
	// are needed before a path can be preferred over the analytic scan
	// score; the later probes let the estimate settle towards the
	// converged per-query cost, which is what exploitation will pay.
	ExplorePasses int
	// ReExplorePasses is the per-path probe budget of a drift-triggered
	// re-exploration (default 1; the structures are warm, one query is
	// enough to refresh an estimate).
	ReExplorePasses int
	// DriftFactor is how many times the decision-time baseline a
	// query's cost must exceed to count towards drift (default 4).
	DriftFactor float64
	// DriftWindow is how many consecutive drifting queries re-open
	// exploration (default 8). Transient re-crack spikes after a focus
	// shift last one or two queries and never reach it.
	DriftWindow int
	// Alpha is the EWMA smoothing factor for per-path cost estimates
	// (default 0.3; higher weighs recent queries more).
	Alpha float64
}

// DefaultPlannerOptions returns the canonical planner configuration.
func DefaultPlannerOptions() PlannerOptions {
	return PlannerOptions{
		ExplorePasses:   8,
		ReExplorePasses: 1,
		DriftFactor:     4,
		DriftWindow:     8,
		Alpha:           0.3,
	}
}

func (o PlannerOptions) withDefaults() PlannerOptions {
	d := DefaultPlannerOptions()
	if o.ExplorePasses <= 0 {
		o.ExplorePasses = d.ExplorePasses
	}
	if o.ReExplorePasses <= 0 {
		o.ReExplorePasses = d.ReExplorePasses
	}
	if o.DriftFactor <= 1 {
		o.DriftFactor = d.DriftFactor
	}
	if o.DriftWindow <= 0 {
		o.DriftWindow = d.DriftWindow
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = d.Alpha
	}
	return o
}

// planPhase is the planner's mode for one (table, column).
type planPhase uint8

const (
	phaseExplore planPhase = iota
	phaseExploit
)

func (p planPhase) String() string {
	if p == phaseExplore {
		return "explore"
	}
	return "exploit"
}

// queryShape separates the reads whose recurring cost differs in kind:
// a count answers from positions and materialises nothing, every other
// read copies qualifying rows (and projected values).
type queryShape uint8

const (
	shapeCount queryShape = iota
	shapeMaterialise
	numShapes
)

// shapeOf returns the shape of q.
func shapeOf(q Query) queryShape {
	if q.CountOnly {
		return shapeCount
	}
	return shapeMaterialise
}

// pathObs accumulates what the planner has seen of one access path.
type pathObs struct {
	queries uint64
	work    uint64
	wall    time.Duration
	// first is the cost of the path's first query, which for adaptive
	// paths includes the one-time structure construction; ewma smooths
	// every later query — the steady-state marginal cost exploitation
	// would actually pay. warm reports that ewma is seeded.
	first  float64
	ewma   float64
	seen   bool
	warm   bool
	probes int
	// shapeProbes splits the probes of the current explore round by
	// query shape. It is not persisted: a planner restored mid-explore
	// restarts it at zero.
	shapeProbes [numShapes]int
}

// planState is the planner's state for one (table, column).
type planState struct {
	phase      planPhase
	passes     int
	candidates []AccessPath
	scanCost   float64
	paths      [numStaticPaths]pathObs
	chosen     AccessPath
	baseline   float64
	driftRun   int
	reExplores int
}

// planner holds per-column routing state for PathAuto.
type planner struct {
	opts   PlannerOptions
	states map[TableColumn]*planState
	// events, when set, receives the planner's explore/exploit/
	// re-explore decisions (with per-path scores) as structured events.
	events *trace.Log
}

func newPlanner(opts PlannerOptions) *planner {
	return &planner{opts: opts.withDefaults(), states: make(map[TableColumn]*planState)}
}

func (p *planner) stateFor(tc TableColumn, candidates []AccessPath, scanCost float64) *planState {
	st, ok := p.states[tc]
	if !ok {
		st = &planState{
			phase:      phaseExplore,
			passes:     p.opts.ExplorePasses,
			candidates: candidates,
			chosen:     PathScan,
		}
		p.states[tc] = st
		if p.events != nil {
			p.events.Append(trace.Event{Kind: "plan_explore", Table: tc.Table, Column: tc.Column,
				Fields: map[string]float64{
					"passes":     float64(p.opts.ExplorePasses),
					"candidates": float64(len(candidates)),
				}})
		}
	}
	st.scanCost = scanCost
	return st
}

// score is the planner's current per-query cost estimate for a path:
// the smoothed marginal cost when enough observations exist, the
// construction-laden first observation when that is all there is, the
// analytic scan model for an unprobed scan, and +Inf for unprobed
// adaptive paths.
func (st *planState) score(path AccessPath) float64 {
	obs := st.paths[path]
	if obs.warm {
		return obs.ewma
	}
	if obs.seen {
		return obs.first
	}
	if path == PathScan {
		return st.scanCost
	}
	return math.Inf(1)
}

// route picks the access path for one PathAuto query that materialises
// rows: routeShape for a single-shape stream.
func (p *planner) route(tc TableColumn, candidates []AccessPath, scanCost float64) AccessPath {
	return p.routeShape(tc, candidates, scanCost, shapeMaterialise)
}

// routeShape picks the access path for one PathAuto query of the given
// shape.
func (p *planner) routeShape(tc TableColumn, candidates []AccessPath, scanCost float64, shape queryShape) AccessPath {
	st := p.stateFor(tc, candidates, scanCost)
	if st.phase == phaseExplore {
		// Interleave: of the candidates still under their probe budget,
		// probe the one with the fewest probes of this query's shape
		// (then the fewest probes overall, then the lighter structure),
		// so every candidate's observation window covers the same slice
		// of the query stream and the same mix of shapes. Sequential
		// windows would score candidates on different predicates — on a
		// skewed stream, whichever path happened to probe during a burst
		// of fresh predicates would look expensive through no fault of
		// its own. On a single-shape stream this is plain fewest-probes
		// interleaving.
		probe := PathAuto
		for _, c := range st.candidates {
			obs := &st.paths[c]
			if obs.probes >= st.passes {
				continue
			}
			if probe == PathAuto {
				probe = c
				continue
			}
			best := &st.paths[probe]
			if obs.shapeProbes[shape] < best.shapeProbes[shape] ||
				obs.shapeProbes[shape] == best.shapeProbes[shape] && obs.probes < best.probes {
				probe = c
			}
		}
		if probe != PathAuto {
			return probe
		}
		st.decide()
		p.emitDecision(tc, st)
	}
	return st.chosen
}

// emitDecision records a closed explore round: the chosen path and the
// score of every path the decision weighed.
func (p *planner) emitDecision(tc TableColumn, st *planState) {
	if p.events == nil {
		return
	}
	fields := map[string]float64{"baseline": st.baseline}
	for _, c := range append([]AccessPath{PathScan}, st.candidates...) {
		if s := st.score(c); !math.IsInf(s, 1) {
			fields["score_"+c.String()] = s
		}
	}
	p.events.Append(trace.Event{Kind: "plan_exploit", Table: tc.Table, Column: tc.Column,
		Path: st.chosen.String(), Fields: fields})
}

// tieMargin is how decisively a candidate must beat the incumbent best
// to displace it: its score must be below 90% of the incumbent's.
// Candidates are ordered lightest structure first (scan, then cracking,
// then sideways), so near-ties — a selection-only workload, where every
// adaptive path copies the same qualifying rows — resolve to the
// structurally cheaper path instead of following estimate noise.
const tieMargin = 0.9

// decide closes an explore round: the cheapest path by current score
// wins, and its score becomes the drift baseline.
func (st *planState) decide() {
	best, bestScore := PathScan, st.score(PathScan)
	for _, c := range st.candidates {
		if s := st.score(c); s < tieMargin*bestScore {
			best, bestScore = c, s
		}
	}
	st.chosen = best
	st.baseline = bestScore
	st.phase = phaseExploit
	st.driftRun = 0
}

// reExplore re-opens exploration after sustained drift.
func (st *planState) reExplore(passes int) {
	st.phase = phaseExplore
	st.passes = passes
	st.driftRun = 0
	st.reExplores++
	for i := range st.paths {
		st.paths[i].probes = 0
		st.paths[i].shapeProbes = [numShapes]int{}
	}
}

// observe records the measured cost of one executed query that
// materialises rows: observeShape for a single-shape stream.
func (p *planner) observe(tc TableColumn, candidates []AccessPath, scanCost float64, path AccessPath, routed bool, delta cost.Counters, wall time.Duration) {
	p.observeShape(tc, candidates, scanCost, path, shapeMaterialise, routed, delta, wall)
}

// observeShape records the measured cost of one executed query of the
// given shape. delta is the engine's cost-counter delta for exactly this
// query. routed reports whether the planner itself chose the path
// (PathAuto); only routed queries advance explore probes and drift
// detection, but every observation — explicit-path experiments
// included — refines the per-path estimate.
//
// Estimates smooth the RECURRING component of the work (see
// cost.Counters.Recurring): materialisation is re-paid on every
// repetition of a query shape, while reorganisation (cracking pieces,
// building maps) is a one-time investment that decays — and, being an
// order of magnitude larger on fresh predicates, would otherwise bury
// the signal that separates the paths. For a scan the whole query is
// recurring, so its estimate uses the full work delta.
func (p *planner) observeShape(tc TableColumn, candidates []AccessPath, scanCost float64, path AccessPath, shape queryShape, routed bool, delta cost.Counters, wall time.Duration) {
	if path >= numStaticPaths {
		return
	}
	st := p.stateFor(tc, candidates, scanCost)
	obs := &st.paths[path]
	obs.queries++
	obs.work += delta.Total()
	obs.wall += wall
	w := float64(delta.Recurring())
	if path == PathScan {
		w = float64(delta.Total())
	}
	switch {
	case !obs.seen:
		obs.seen = true
		obs.first = w
		if path == PathScan {
			// A scan has no construction step; its first query already
			// is the marginal cost.
			obs.ewma = w
			obs.warm = true
		}
	case !obs.warm:
		obs.ewma = w
		obs.warm = true
	default:
		obs.ewma = p.opts.Alpha*w + (1-p.opts.Alpha)*obs.ewma
	}
	if !routed {
		return
	}
	switch st.phase {
	case phaseExplore:
		obs.probes++
		obs.shapeProbes[shape]++
	case phaseExploit:
		if path != st.chosen {
			return
		}
		// Sustained drift: the chosen path's recurring cost runs several
		// times its decision-time baseline, query after query. Recurring
		// cost barely moves when the focus shifts (a re-crack is
		// reorganisation, not materialisation), so this fires on genuine
		// shape changes — wider predicates, heavier projections — not on
		// transient spikes.
		if w > p.opts.DriftFactor*math.Max(st.baseline, 1) {
			st.driftRun++
		} else {
			st.driftRun = 0
		}
		if st.driftRun >= p.opts.DriftWindow {
			st.reExplore(p.opts.ReExplorePasses)
			if p.events != nil {
				p.events.Append(trace.Event{Kind: "plan_reexplore", Table: tc.Table, Column: tc.Column,
					Path: path.String(), Fields: map[string]float64{
						"re_explores": float64(st.reExplores),
						"passes":      float64(p.opts.ReExplorePasses),
						"last_work":   w,
						"baseline":    st.baseline,
					}})
			}
		}
	}
}

// PlanPathStats is the observable per-path state of one column's
// planner.
type PlanPathStats struct {
	Path    string  `json:"path"`
	Queries uint64  `json:"queries"`
	AvgWork float64 `json:"avg_work"`
	EWMA    float64 `json:"ewma_work"`
	WallUs  int64   `json:"wall_us"`
	Probes  int     `json:"probes"`
}

// PlanStats is the observable planner state for one (table, column).
type PlanStats struct {
	Table      string          `json:"table"`
	Column     string          `json:"column"`
	Phase      string          `json:"phase"`
	Chosen     string          `json:"chosen"`
	Baseline   float64         `json:"baseline_work"`
	ReExplores int             `json:"re_explores"`
	Paths      []PlanPathStats `json:"paths"`
}

// PlanStats returns the planner's per-column state, sorted by table
// then column, for /stats and reports.
func (e *Engine) PlanStats() []PlanStats {
	out := make([]PlanStats, 0, len(e.planner.states))
	for tc, st := range e.planner.states {
		ps := PlanStats{
			Table:      tc.Table,
			Column:     tc.Column,
			Phase:      st.phase.String(),
			Chosen:     st.chosen.String(),
			Baseline:   st.baseline,
			ReExplores: st.reExplores,
		}
		for path := AccessPath(0); path < numStaticPaths; path++ {
			obs := st.paths[path]
			if !obs.seen {
				continue
			}
			ps.Paths = append(ps.Paths, PlanPathStats{
				Path:    path.String(),
				Queries: obs.queries,
				AvgWork: float64(obs.work) / float64(obs.queries),
				EWMA:    obs.ewma,
				WallUs:  obs.wall.Microseconds(),
				Probes:  obs.probes,
			})
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}
