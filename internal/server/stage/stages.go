package stage

import (
	"context"

	"busprobe/internal/clock"

	"busprobe/internal/core/cluster"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/core/tripmap"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/transit"
)

// Matcher is stage 1: per-sample Smith–Waterman matching against the
// stop fingerprint database with the γ acceptance filter. This is the
// pipeline's hot path; the fingerprint DB is internally synchronized,
// so many Matcher runs may proceed concurrently.
type Matcher struct {
	instrument
	db *fingerprint.DB
}

// MatchInput is one trip's raw cellular samples.
type MatchInput struct {
	Samples []probe.Sample
}

// MatchOutput is the γ survivors as cluster elements.
type MatchOutput struct {
	Elements []cluster.Element
	// Discarded counts samples below the γ threshold.
	Discarded int
}

// NewMatcher builds the matching stage over a fingerprint database.
func NewMatcher(db *fingerprint.DB) *Matcher {
	return &Matcher{instrument: instrument{name: "match"}, db: db}
}

// Run matches every sample, keeping those that clear γ.
func (m *Matcher) Run(ctx context.Context, in MatchInput) MatchOutput {
	start := m.now()
	var elems []cluster.Element
	for _, s := range in.Samples {
		mt, ok := m.db.Match(s.Fingerprint())
		if !ok {
			continue
		}
		elems = append(elems, cluster.Element{TimeS: s.TimeS, Stop: mt.Stop, Score: mt.Score})
	}
	out := MatchOutput{Elements: elems, Discarded: len(in.Samples) - len(elems)}
	m.observe(ctx, len(in.Samples), len(elems), out.Discarded, start)
	return out
}

// Clusterer is stage 2: Eq. 1 per-bus-stop co-clustering of matched
// samples into stop-visit candidates.
type Clusterer struct {
	instrument
	params cluster.Params
}

// ClusterInput is the matched elements of one trip, time-ordered.
type ClusterInput struct {
	Elements []cluster.Element
}

// ClusterOutput is the visit-candidate clusters.
type ClusterOutput struct {
	Clusters []cluster.Cluster
}

// NewClusterer builds the clustering stage with the Eq. 1 constants.
func NewClusterer(params cluster.Params) *Clusterer {
	return &Clusterer{instrument: instrument{name: "cluster"}, params: params}
}

// Run co-clusters the elements.
func (c *Clusterer) Run(ctx context.Context, in ClusterInput) (ClusterOutput, error) {
	start := c.now()
	clusters, err := cluster.Sequence(in.Elements, c.params)
	if err != nil {
		c.observe(ctx, len(in.Elements), 0, 0, start)
		return ClusterOutput{}, err
	}
	c.observe(ctx, len(in.Elements), len(clusters), 0, start)
	return ClusterOutput{Clusters: clusters}, nil
}

// Mapper is stage 3: per-trip maximum-likelihood mapping of the
// cluster sequence onto stops under bus-route order constraints
// (Eq. 2).
type Mapper struct {
	instrument
	transit *transit.DB
}

// MapInput is one trip's visit-candidate clusters.
type MapInput struct {
	Clusters []cluster.Cluster
}

// MapOutput is the resolved stop-visit sequence.
type MapOutput struct {
	Visits []tripmap.Visit
}

// NewMapper builds the mapping stage over the transit database.
func NewMapper(tdb *transit.DB) *Mapper {
	return &Mapper{instrument: instrument{name: "map"}, transit: tdb}
}

// Run resolves the cluster sequence to stop visits.
func (m *Mapper) Run(ctx context.Context, in MapInput) (MapOutput, error) {
	start := m.now()
	res, err := tripmap.Resolve(in.Clusters, m.transit)
	if err != nil {
		m.observe(ctx, len(in.Clusters), 0, 0, start)
		return MapOutput{}, err
	}
	m.observe(ctx, len(in.Clusters), len(res.Visits), 0, start)
	return MapOutput{Visits: res.Visits}, nil
}

// Extractor is stage 4: consecutive visit pairs become per-leg traffic
// observations (BTT = arrive(next) − depart(prev), §III-D), attributed
// to the route best supporting the visit sequence. Pairs no route
// serves in order and travel times implying implausible speeds are
// discarded as mapping noise.
type Extractor struct {
	instrument
	transit                  *transit.DB
	minSpeedKmh, maxSpeedKmh float64
}

// ExtractInput is one trip's resolved visit sequence.
type ExtractInput struct {
	Visits []tripmap.Visit
}

// ExtractOutput is the surviving leg observations.
type ExtractOutput struct {
	Observations []traffic.Observation
	// Discarded counts visit pairs dropped as noise (unordered,
	// unserved, or implausibly fast/slow).
	Discarded int
}

// NewExtractor builds the observation-extraction stage. Speeds outside
// [minSpeedKmh, maxSpeedKmh] are discarded.
func NewExtractor(tdb *transit.DB, minSpeedKmh, maxSpeedKmh float64) *Extractor {
	return &Extractor{
		instrument:  instrument{name: "extract"},
		transit:     tdb,
		minSpeedKmh: minSpeedKmh,
		maxSpeedKmh: maxSpeedKmh,
	}
}

// Run converts the visit sequence into per-leg traffic observations.
func (e *Extractor) Run(ctx context.Context, in ExtractInput) ExtractOutput {
	start := e.now()
	out := e.extract(in.Visits)
	e.observe(ctx, len(in.Visits), len(out.Observations), out.Discarded, start)
	return out
}

func (e *Extractor) extract(visits []tripmap.Visit) ExtractOutput {
	if len(visits) < 2 {
		return ExtractOutput{}
	}
	var out ExtractOutput
	routes := e.RankRoutesByVisitSupport(visits)
	net := e.transit.Network()
	for i := 0; i+1 < len(visits); i++ {
		from, to := visits[i], visits[i+1]
		if from.Stop == to.Stop {
			continue // repeated resolution of the same stop; no motion
		}
		btt := to.ArriveS - from.DepartS
		if btt <= 0 {
			out.Discarded++
			continue
		}
		leg, ok := e.LegBetween(routes, from.Stop, to.Stop)
		if !ok {
			out.Discarded++
			continue
		}
		speedKmh := leg.LengthM / btt * 3.6
		if speedKmh < e.minSpeedKmh || speedKmh > e.maxSpeedKmh {
			out.Discarded++
			continue
		}
		freeKmh := LegFreeKmh(net, leg)
		out.Observations = append(out.Observations, traffic.Observation{
			Segments:   leg.Segments,
			LengthM:    leg.LengthM,
			FreeKmh:    freeKmh,
			BTTSeconds: btt,
			TimeS:      to.ArriveS,
		})
	}
	return out
}

// RankRoutesByVisitSupport orders the routes by how many of the trip's
// consecutive visit pairs they serve in order, so legs are attributed
// to the route the rider most plausibly took.
func (e *Extractor) RankRoutesByVisitSupport(visits []tripmap.Visit) []*transit.Route {
	type scored struct {
		rt *transit.Route
		n  int
	}
	all := e.transit.Routes()
	ranked := make([]scored, 0, len(all))
	for _, rt := range all {
		n := 0
		for i := 0; i+1 < len(visits); i++ {
			fi := rt.StopIndex(visits[i].Stop)
			ti := rt.StopIndex(visits[i+1].Stop)
			if fi >= 0 && ti > fi {
				n++
			}
		}
		ranked = append(ranked, scored{rt: rt, n: n})
	}
	// Stable selection sort by descending support keeps determinism and
	// is tiny (route counts are single digits).
	for i := 0; i < len(ranked); i++ {
		best := i
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].n > ranked[best].n {
				best = j
			}
		}
		ranked[i], ranked[best] = ranked[best], ranked[i]
	}
	out := make([]*transit.Route, len(ranked))
	for i, s := range ranked {
		out[i] = s.rt
	}
	return out
}

// LegBetween finds the road stretch between two stops on the
// best-supported route serving them in order. The pair may skip
// intermediate stops (nobody tapped there): LegBetween concatenates the
// intermediate legs, implementing the §III-D merge.
func (e *Extractor) LegBetween(routes []*transit.Route, from, to transit.StopID) (transit.Leg, bool) {
	net := e.transit.Network()
	for _, rt := range routes {
		fi := rt.StopIndex(from)
		if fi < 0 {
			continue
		}
		ti := rt.StopIndex(to)
		if ti <= fi {
			continue
		}
		return rt.LegBetween(net, fi, ti), true
	}
	return transit.Leg{}, false
}

// LegFreeKmh returns the harmonic-mean free-flow speed over a leg
// (total length / total free-flow time), which is the free speed the
// Eq. 3 "a" term needs for a multi-segment stretch.
func LegFreeKmh(net *road.Network, leg transit.Leg) float64 {
	var timeS float64
	for _, sid := range leg.Segments {
		timeS += net.Segment(sid).FreeTravelS()
	}
	if timeS <= 0 {
		return 0
	}
	return leg.LengthM / timeS * 3.6
}

// Estimator is stage 5: observations fold into the Bayesian per-segment
// traffic estimator (Eq. 4). The estimator is internally synchronized
// and order-insensitive — it folds the observation multiset to the same
// map in any delivery order — so Run calls need no serialization. Each
// Run hands its whole input to the estimator as one batch, so a trip
// (or a scatter group) settles and publishes at most once.
type Estimator struct {
	instrument
	est *traffic.Estimator
}

// EstimateInput is one trip's extracted observations.
type EstimateInput struct {
	Observations []traffic.Observation
}

// EstimateOutput counts the folded and rejected observations.
type EstimateOutput struct {
	Folded    int
	Discarded int
}

// NewEstimatorStage builds the estimation sink over a traffic
// estimator.
func NewEstimatorStage(est *traffic.Estimator) *Estimator {
	return &Estimator{instrument: instrument{name: "estimate"}, est: est}
}

// Run folds the observations into the estimator as one batch;
// individually invalid observations are dropped, never failing the
// trip.
func (e *Estimator) Run(ctx context.Context, in EstimateInput) EstimateOutput {
	start := e.now()
	folded, _ := e.est.AddObservations(in.Observations)
	out := EstimateOutput{Folded: folded, Discarded: len(in.Observations) - folded}
	e.observe(ctx, len(in.Observations), out.Folded, out.Discarded, start)
	return out
}

// Pipeline composes the five Fig. 4 stages in order.
type Pipeline struct {
	Match    *Matcher
	Cluster  *Clusterer
	Map      *Mapper
	Extract  *Extractor
	Estimate *Estimator
}

// Config bundles the stage tunables a pipeline needs beyond its
// databases.
type Config struct {
	// Cluster are the Eq. 1 co-clustering constants.
	Cluster cluster.Params
	// MinSpeedKmh / MaxSpeedKmh bound plausible leg observations.
	MinSpeedKmh, MaxSpeedKmh float64
	// Clock, when non-nil, replaces the wall clock behind per-stage
	// duration metrics; tests pass a clock.Fake for determinism.
	Clock clock.Clock
}

// New assembles a pipeline over the fingerprint database, transit
// database, and traffic estimator.
func New(fpdb *fingerprint.DB, tdb *transit.DB, est *traffic.Estimator, cfg Config) *Pipeline {
	p := &Pipeline{
		Match:    NewMatcher(fpdb),
		Cluster:  NewClusterer(cfg.Cluster),
		Map:      NewMapper(tdb),
		Extract:  NewExtractor(tdb, cfg.MinSpeedKmh, cfg.MaxSpeedKmh),
		Estimate: NewEstimatorStage(est),
	}
	if cfg.Clock != nil {
		p.Match.SetClock(cfg.Clock)
		p.Cluster.SetClock(cfg.Clock)
		p.Map.SetClock(cfg.Clock)
		p.Extract.SetClock(cfg.Clock)
		p.Estimate.SetClock(cfg.Clock)
	}
	return p
}

// Stages lists the components in pipeline order.
func (p *Pipeline) Stages() []Stage {
	return []Stage{p.Match, p.Cluster, p.Map, p.Extract, p.Estimate}
}

// Metrics snapshots every stage's counters in pipeline order.
func (p *Pipeline) Metrics() []Metrics {
	stages := p.Stages()
	out := make([]Metrics, len(stages))
	for i, s := range stages {
		out[i] = s.Metrics()
	}
	return out
}
