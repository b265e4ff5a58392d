package telemetry

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/sim"
)

// Registry scrapes registered sources into fixed-capacity ring series
// on a sim-tick interval. Enumeration order is deterministic — sources
// in registration order, rows in sorted DS-id order, columns in table
// layout order — so a sequential run's exported series are
// byte-identical across repeats (the bit-reproducibility contract
// behind EXPERIMENTS.md, extended to telemetry).
//
// The steady-state scrape allocates nothing: rings are preallocated,
// row lists are cached against Table.Generation and only rebuilt when
// an LDom comes or goes. pardlint's hotalloc analyzer proves this from
// the scrape root; benchgate's telemetry_scrape section holds it
// dynamically.
type Registry struct {
	eng      *sim.Engine
	interval sim.Tick
	capacity int

	planes []*planeSource
	gauges []*gauge

	series  []*metric.Series // every series, in creation order
	scrapes uint64
	started bool
}

// planeSource scrapes one control plane's statistics table plus any
// per-LDom gauge templates attached to it. Each DS-id the plane has
// had a row for owns one series list: its statistics columns in table
// layout order, then one series per template in attachment order.
type planeSource struct {
	prefix string
	plane  *core.Plane
	tmpls  []gaugeTemplate
	synced bool
	gen    uint64 // stats-table generation the caches were built against

	rows   []core.DSID
	active [][]*metric.Series // parallel to rows
	byDS   [][]*metric.Series // indexed by DS-id
}

// gaugeTemplate is a per-LDom numeric gauge (e.g. a latency percentile
// read from the trace recorder) instantiated for every row the source
// currently has.
type gaugeTemplate struct {
	name string
	read func(core.DSID) float64
}

// gauge is a scalar source sampled once per scrape.
type gauge struct {
	series *metric.Series
	read   func() float64
}

// NewRegistry returns a registry scraping every interval ticks into
// rings of the given sample capacity. Start must be called to begin
// scraping.
func NewRegistry(eng *sim.Engine, interval sim.Tick, capacity int) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	return &Registry{eng: eng, interval: interval, capacity: capacity}
}

// AddPlane registers a control plane's statistics table under a series
// prefix (conventionally the CPA mount name, "cpa0"). Every statistics
// column of every current and future row is scraped as
// "<prefix>.ds<id>.<column>".
func (r *Registry) AddPlane(prefix string, p *core.Plane) {
	r.planes = append(r.planes, &planeSource{prefix: prefix, plane: p})
}

// AddPlaneGauge attaches a per-LDom gauge to a previously added plane
// source: read is called for each DS-id the plane currently has a
// statistics row for, producing "<prefix>.ds<id>.<name>" series. It
// panics on an unknown prefix — wiring bugs must not fail silently.
func (r *Registry) AddPlaneGauge(prefix, name string, read func(core.DSID) float64) {
	for _, src := range r.planes {
		if src.prefix == prefix {
			src.tmpls = append(src.tmpls, gaugeTemplate{name: name, read: read})
			src.synced = false // force a resync to instantiate existing rows
			return
		}
	}
	panic("telemetry: AddPlaneGauge: no plane source " + prefix)
}

// AddGauge registers a scalar gauge sampled once per scrape and returns
// its series.
func (r *Registry) AddGauge(name string, read func() float64) *metric.Series {
	s := metric.NewSeries(name, r.capacity)
	r.gauges = append(r.gauges, &gauge{series: s, read: read})
	r.series = append(r.series, s)
	return s
}

// Start schedules the first scrape one interval from now. It is a
// no-op when already started or when the interval is zero (telemetry
// disabled).
func (r *Registry) Start() {
	if r.started || r.interval <= 0 {
		return
	}
	r.started = true
	r.eng.ScheduleEventer(r.interval, r)
}

// RunEvent is the self-rescheduling scrape event.
func (r *Registry) RunEvent() {
	r.Scrape()
	r.eng.ScheduleEventer(r.interval, r)
}

// Scrape performs one scrape at the current sim-time: resync row caches
// if any table's row set changed, then sample every source. Exported so
// benchgate can measure the steady state without driving the engine.
func (r *Registry) Scrape() {
	r.maybeResync()
	r.scrape(r.eng.Now())
	r.scrapes++
}

// maybeResync rebuilds a source's row and ring caches only when its
// statistics table's generation moved — LDom create/destroy cadence,
// not scrape cadence.
func (r *Registry) maybeResync() {
	for _, src := range r.planes {
		g := src.plane.Stats().Generation()
		if src.synced && g == src.gen {
			continue
		}
		r.resync(src)
		src.gen = g
		src.synced = true
	}
}

// resync rebuilds one source's caches. Series persist across resyncs —
// a destroyed LDom's series stop updating but keep their history; a
// recreated DS-id resumes its old series.
func (r *Registry) resync(src *planeSource) {
	src.rows = src.plane.Stats().AppendRows(src.rows[:0])
	cols := src.plane.Stats().Columns()
	src.active = src.active[:0]
	for _, ds := range src.rows {
		src.byDS = core.GrowTo(src.byDS, ds)
		list := src.byDS[ds]
		if list == nil {
			//pardlint:ignore hotalloc first sight of a DS-id: resync runs on stat-table generation change (LDom create/destroy), not per scrape
			list = make([]*metric.Series, 0, len(cols)+len(src.tmpls))
			for _, c := range cols {
				//pardlint:ignore hotalloc first sight of a DS-id: fills the capacity made above
				list = append(list, r.rowSeries(src, ds, c.Name))
			}
		}
		// Templates the row has no series for yet: all of them at first
		// sight, else those attached since its last resync.
		for _, t := range src.tmpls[len(list)-len(cols):] {
			//pardlint:ignore hotalloc first sight of a (DS-id, template) pair: bounded by LDom count times templates
			list = append(list, r.rowSeries(src, ds, t.name))
		}
		src.byDS[ds] = list
		src.active = append(src.active, list)
	}
}

// rowSeries creates the series "<prefix>.ds<id>.<name>".
func (r *Registry) rowSeries(src *planeSource, ds core.DSID, name string) *metric.Series {
	//pardlint:ignore hotalloc first sight of a DS-id: one series per (DS-id, column or template), bounded by LDom count
	s := metric.NewSeries(fmt.Sprintf("%s.ds%d.%s", src.prefix, ds, name), r.capacity)
	r.series = append(r.series, s)
	return s
}

// scrape samples every source at now. This is the telemetry hot path:
// with row caches in sync it performs table reads, gauge reads and ring
// writes only.
//
//pardlint:hotpath telemetry steady-state scrape: every stat column, per-LDom gauge and scalar gauge, zero allocation
func (r *Registry) scrape(now sim.Tick) {
	for _, src := range r.planes {
		st := src.plane.Stats()
		ncols := st.NumColumns()
		for ri, ds := range src.rows {
			row := src.active[ri]
			for ci, s := range row[:ncols] {
				v, err := st.Get(ds, ci)
				if err != nil {
					continue
				}
				s.Record(now, float64(v))
			}
			for ti, s := range row[ncols:] {
				s.Record(now, src.tmpls[ti].read(ds))
			}
		}
	}
	for _, g := range r.gauges {
		g.series.Record(now, g.read())
	}
}

// Series returns every series in creation order. The slice is the
// registry's own — callers must not mutate it.
func (r *Registry) Series() []*metric.Series { return r.series }

// Find returns the series with the given name, or nil.
func (r *Registry) Find(name string) *metric.Series {
	for _, s := range r.series {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// Scrapes returns how many scrapes have run.
func (r *Registry) Scrapes() uint64 { return r.scrapes }

// Interval returns the scrape interval in ticks.
func (r *Registry) Interval() sim.Tick { return r.interval }

// Capacity returns the per-series sample capacity.
func (r *Registry) Capacity() int { return r.capacity }

// Now returns the registry engine's current sim-time (export surfaces
// stamp documents with it).
func (r *Registry) Now() sim.Tick { return r.eng.Now() }
