// Package sweep is the parameter-sweep campaign engine: the declarative
// front door for every figure reproduction and perf study that varies
// simulation parameters. A Campaign holds one base scenario.Spec plus one or
// more Axes — linear, log or list sweeps addressed into the spec by a small
// path language (see patch.go) — and expands into the full cross-product of
// concrete Specs with derived per-point seeds. Execution fans the expansion
// through the scenario engine's parallel Runner (whose results are
// byte-identical to a serial run), and the stats layer aggregates every
// numeric result field across seed replicates into mean/stddev/min/max/
// p50/p99 summaries with deterministic CSV and JSON emitters: the same
// campaign always produces the same bytes, whatever the worker count.
//
// Seed derivation pairs variants deliberately: the per-point seed offset is
// computed from the point's position along the *numeric* axes only, so two
// points that differ only in a string axis (e.g. workload[0].cc = cm vs
// native) replay identical network randomness — the paired-comparison design
// the paper's Figure 3 used on its Dummynet testbed.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/dynamics"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sweep/stats"
)

// Axis scales.
const (
	// ScaleLinear spaces Steps values evenly over [Min, Max].
	ScaleLinear = "linear"
	// ScaleLog spaces Steps values geometrically over [Min, Max] (both > 0).
	ScaleLog = "log"
	// ScaleList enumerates Values (or Strings) as given. It is implied when
	// either list is set.
	ScaleList = "list"
)

// Axis is one swept dimension: a spec parameter and the values it takes.
// Exactly one of {Values, Strings, Min/Max/Steps} describes the values.
type Axis struct {
	// Param addresses the swept parameter (see the grammar in patch.go).
	Param string `json:"param"`
	// Scale is ScaleLinear (default), ScaleLog or ScaleList.
	Scale string `json:"scale,omitempty"`
	// Min, Max and Steps describe a generated range.
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Steps int     `json:"steps,omitempty"`
	// Values is an explicit numeric list.
	Values []float64 `json:"values,omitempty"`
	// Strings is an explicit string list (variant axes: cc, kind). String
	// axes do not perturb the derived seeds, pairing their variants.
	Strings []string `json:"strings,omitempty"`
}

// numeric reports whether the axis sweeps numbers (rather than strings).
func (a Axis) numeric() bool { return len(a.Strings) == 0 }

// expand returns the axis values in sweep order.
func (a Axis) expand() ([]Value, error) {
	if a.Param == "" {
		return nil, fmt.Errorf("sweep: axis without a param")
	}
	if len(a.Strings) > 0 {
		if len(a.Values) > 0 || a.Steps != 0 || (a.Scale != "" && a.Scale != ScaleList) {
			return nil, fmt.Errorf("sweep: axis %q mixes strings with numeric range fields", a.Param)
		}
		vals := make([]Value, len(a.Strings))
		for i, s := range a.Strings {
			vals[i] = Value{Param: a.Param, Str: s, IsString: true}
		}
		return vals, nil
	}
	if len(a.Values) > 0 {
		if a.Steps != 0 || (a.Scale != "" && a.Scale != ScaleList) {
			return nil, fmt.Errorf("sweep: axis %q mixes an explicit list with range fields", a.Param)
		}
		vals := make([]Value, len(a.Values))
		for i, v := range a.Values {
			vals[i] = Value{Param: a.Param, Num: v}
		}
		return vals, nil
	}
	if a.Steps < 1 {
		return nil, fmt.Errorf("sweep: axis %q needs values, strings, or steps >= 1", a.Param)
	}
	scale := a.Scale
	if scale == "" {
		scale = ScaleLinear
	}
	vals := make([]Value, a.Steps)
	for i := 0; i < a.Steps; i++ {
		frac := 0.0
		if a.Steps > 1 {
			frac = float64(i) / float64(a.Steps-1)
		}
		var v float64
		switch scale {
		case ScaleLinear:
			v = a.Min + (a.Max-a.Min)*frac
		case ScaleLog:
			if a.Min <= 0 || a.Max <= 0 {
				return nil, fmt.Errorf("sweep: axis %q: log scale needs min, max > 0", a.Param)
			}
			v = a.Min * math.Pow(a.Max/a.Min, frac)
		default:
			return nil, fmt.Errorf("sweep: axis %q: unknown scale %q", a.Param, scale)
		}
		vals[i] = Value{Param: a.Param, Num: v}
	}
	return vals, nil
}

// Value is one concrete axis coordinate of a sweep point.
type Value struct {
	Param    string  `json:"param"`
	Num      float64 `json:"num,omitempty"`
	Str      string  `json:"str,omitempty"`
	IsString bool    `json:"is_string,omitempty"`
}

// String formats the coordinate for CSV cells and tables.
func (v Value) String() string {
	if v.IsString {
		return v.Str
	}
	return strconv.FormatFloat(v.Num, 'g', -1, 64)
}

func (v Value) numeric(param string) (float64, error) {
	if v.IsString {
		return 0, fmt.Errorf("sweep: param %q needs a numeric value, got %q", param, v.Str)
	}
	return v.Num, nil
}

func (v Value) str(param string) (string, error) {
	if !v.IsString {
		return "", fmt.Errorf("sweep: param %q needs a string value, got %v", param, v.Num)
	}
	return v.Str, nil
}

// Campaign is a declarative parameter-sweep: a base spec, the axes that vary
// it, and how many seed replicates to run at each point.
type Campaign struct {
	Name string `json:"name,omitempty"`
	// Scenario names a registered base scenario; Base is an inline spec.
	// Exactly one of the two must be set.
	Scenario string         `json:"scenario,omitempty"`
	Base     *scenario.Spec `json:"base,omitempty"`
	// Params configures a parameterised Scenario's builder (fattree k=8).
	// Sweeping a builder parameter uses a param.<name> axis instead, which
	// overrides the same-named entry here point by point.
	Params map[string]float64 `json:"params,omitempty"`
	// Axes are crossed in declaration order: the first axis varies slowest.
	Axes []Axis `json:"axes"`
	// Replicates runs each point this many times under derived seeds
	// (default 1).
	Replicates int `json:"replicates,omitempty"`
	// Seed bases the per-point seed derivation (default: the base spec's
	// seed, or 1).
	Seed int64 `json:"seed,omitempty"`
	// Metrics selects the flattened result fields to aggregate, with *
	// wildcards (default DefaultMetrics). See Flatten for the key space.
	Metrics []string `json:"metrics,omitempty"`
	// Shards applies sharded execution to every expanded spec (optional).
	Shards int `json:"shards,omitempty"`
	// Probes appends declarative sampling probes (see internal/probe) to
	// every expanded spec, after any the base spec already carries. Each
	// probe's series feeds the aggregation layer as probe.<name>.{mean,min,
	// max,last,samples} metrics — covered by DefaultMetrics, so adding a
	// campaign probe immediately adds columns to the CSV.
	Probes []probe.Spec `json:"probes,omitempty"`
	// Plots declares the figures to render from the executed campaign (see
	// plot.go); WritePlots derives defaults from Metrics/Probes when empty.
	Plots []Plot `json:"plots,omitempty"`
}

// DecodeCampaign parses a campaign file strictly: a field the Campaign, its
// base Spec or anything nested in them does not have is an error naming it,
// so a misspelt or removed knob fails instead of silently running the
// defaults. So is anything after the one JSON object, a negative replicate
// or shard count, and a base spec that fails validation (an unknown event
// kind, say), which would otherwise fail every point of the campaign.
func DecodeCampaign(data []byte) (Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Campaign{}, fmt.Errorf("data after the campaign object")
	}
	if c.Replicates < 0 {
		return Campaign{}, fmt.Errorf("campaign replicates %d: want at least 0", c.Replicates)
	}
	if c.Shards < 0 {
		return Campaign{}, fmt.Errorf("campaign shards %d: want at least 0", c.Shards)
	}
	if c.Base != nil {
		if err := c.Base.Validate(); err != nil {
			return Campaign{}, fmt.Errorf("campaign base: %w", err)
		}
	}
	return c, nil
}

// DefaultMetrics aggregates the derived whole-run totals plus the summaries
// of any declared probes.
var DefaultMetrics = []string{"total.*", "probe.*"}

// seedPointStride and seedReplicateStride derive per-run seeds:
//
//	seed(point, replicate) = base + numericIndex(point)*seedPointStride
//	                              + replicate*seedReplicateStride
//
// where numericIndex is the point's row-major index over the numeric axes
// only. A "seed" axis overrides the point term: the axis value becomes the
// base and only the replicate term is added. The constants are part of the
// campaign file format (a campaign re-run elsewhere must reproduce the same
// runs) and are pinned by TestCampaignExpansionGolden.
const (
	seedPointStride     = 1_000_003
	seedReplicateStride = 7919
)

// Point is one coordinate of the expanded cross-product.
type Point struct {
	// Index is the point's row-major position (first axis slowest).
	Index int `json:"index"`
	// Values holds one coordinate per axis, in axis order.
	Values []Value `json:"values"`
	// Seeds are the replicate seeds, in replicate order.
	Seeds []int64 `json:"seeds"`
	// Specs are the concrete replicate specs, in replicate order.
	Specs []scenario.Spec `json:"-"`
}

// base resolves the campaign's base spec (a private copy).
func (c Campaign) base() (scenario.Spec, error) {
	switch {
	case c.Base != nil && c.Scenario != "":
		return scenario.Spec{}, fmt.Errorf("sweep: campaign %q sets both base and scenario", c.Name)
	case c.Base != nil:
		if len(c.Params) > 0 {
			return scenario.Spec{}, fmt.Errorf("sweep: campaign %q sets builder params on an inline base spec", c.Name)
		}
		return cloneSpec(*c.Base), nil
	case c.Scenario != "":
		spec, err := scenario.LookupParams(c.Scenario, c.Params)
		if err != nil {
			return scenario.Spec{}, fmt.Errorf("sweep: campaign %q: %w", c.Name, err)
		}
		return spec, nil
	}
	return scenario.Spec{}, fmt.Errorf("sweep: campaign %q has neither base nor scenario", c.Name)
}

// Expand materialises the cross-product: every point of every axis
// combination, with Replicates concrete Specs per point. It is a pure
// function of the campaign — expansion never runs anything.
func (c Campaign) Expand() ([]Point, error) {
	base, err := c.base()
	if err != nil {
		return nil, err
	}
	if len(c.Axes) == 0 {
		return nil, fmt.Errorf("sweep: campaign %q has no axes", c.Name)
	}
	axes := make([][]Value, len(c.Axes))
	total := 1
	hasParamAxis := false
	for i, a := range c.Axes {
		vals, err := a.expand()
		if err != nil {
			return nil, err
		}
		if _, ok := paramAxis(a.Param); ok {
			hasParamAxis = true
			if c.Scenario == "" {
				return nil, fmt.Errorf("sweep: campaign %q: axis %q needs a named parameterised scenario, not an inline base", c.Name, a.Param)
			}
		}
		axes[i] = vals
		total *= len(vals)
	}
	reps := c.Replicates
	if reps <= 0 {
		reps = 1
	}
	seedBase := c.Seed
	if seedBase == 0 {
		seedBase = base.Seed
	}
	if seedBase == 0 {
		seedBase = 1
	}
	points := make([]Point, 0, total)
	for p := 0; p < total; p++ {
		pt := Point{Index: p, Values: make([]Value, len(axes))}
		// Decompose the row-major index, then compute the numeric-axes-only
		// index and catch a "seed" axis. The decomposed indices (not value
		// lookups) drive the seed derivation, so an axis that deliberately
		// repeats a value still yields distinct seeds per point.
		rem := p
		idxs := make([]int, len(axes))
		for k := len(axes) - 1; k >= 0; k-- {
			idxs[k] = rem % len(axes[k])
			rem /= len(axes[k])
			pt.Values[k] = axes[k][idxs[k]]
		}
		numIdx := 0
		seedAxis := int64(0)
		hasSeedAxis := false
		for k := range axes {
			if c.Axes[k].numeric() {
				numIdx = numIdx*len(axes[k]) + idxs[k]
				if c.Axes[k].Param == "seed" {
					hasSeedAxis = true
					seedAxis = int64(pt.Values[k].Num)
				}
			}
		}
		// Builder-parameter axes reshape the topology, so the point's base
		// comes from re-invoking the scenario factory with the campaign
		// params overlaid by this point's param.* coordinates.
		pointBase := base
		if hasParamAxis {
			merged := make(map[string]float64, len(c.Params)+len(axes))
			for name, v := range c.Params {
				merged[name] = v
			}
			for k := range axes {
				name, ok := paramAxis(c.Axes[k].Param)
				if !ok {
					continue
				}
				num, err := pt.Values[k].numeric(c.Axes[k].Param)
				if err != nil {
					return nil, err
				}
				merged[name] = num
			}
			pointBase, err = scenario.LookupParams(c.Scenario, merged)
			if err != nil {
				return nil, fmt.Errorf("sweep: campaign %q point %d: %w", c.Name, p, err)
			}
		}
		for r := 0; r < reps; r++ {
			spec := cloneSpec(pointBase)
			// The campaign-level shard count applies before the patches, so a
			// swept "shards" axis overrides it — the CSV's shards column must
			// always report what actually ran.
			if c.Shards > 0 {
				spec.Shards = c.Shards
			}
			if len(c.Probes) > 0 {
				spec.Probes = append(append([]probe.Spec(nil), spec.Probes...), c.Probes...)
			}
			for k, v := range pt.Values {
				if _, ok := paramAxis(c.Axes[k].Param); ok {
					continue // already resolved into pointBase
				}
				if err := Apply(&spec, v.Param, v); err != nil {
					return nil, err
				}
			}
			if hasSeedAxis {
				spec.Seed = seedAxis + int64(r)*seedReplicateStride
			} else {
				spec.Seed = seedBase + int64(numIdx)*seedPointStride + int64(r)*seedReplicateStride
			}
			pt.Seeds = append(pt.Seeds, spec.Seed)
			pt.Specs = append(pt.Specs, spec)
		}
		points = append(points, pt)
	}
	return points, nil
}

// cloneSpec copies the spec deeply enough that patching one expansion never
// aliases another: every slice is duplicated and per-link Gilbert models are
// copied (CMOpts, being opaque function values, are shared by reference).
func cloneSpec(s scenario.Spec) scenario.Spec {
	s.Links = append([]scenario.LinkSpec(nil), s.Links...)
	for i := range s.Links {
		if g := s.Links[i].Gilbert; g != nil {
			cp := *g
			s.Links[i].Gilbert = &cp
		}
	}
	s.Routers = append([]string(nil), s.Routers...)
	s.CMHosts = append([]string(nil), s.CMHosts...)
	s.Workloads = append([]scenario.Workload(nil), s.Workloads...)
	s.Events = append([]dynamics.Event(nil), s.Events...)
	for i := range s.Events {
		if g := s.Events[i].Gilbert; g != nil {
			cp := *g
			s.Events[i].Gilbert = &cp
		}
	}
	s.Generators = append([]dynamics.Generator(nil), s.Generators...)
	s.Probes = append([]probe.Spec(nil), s.Probes...)
	s.HierRoots = append([]string(nil), s.HierRoots...)
	if s.Domains != nil {
		d := make(map[string]string, len(s.Domains))
		for k, v := range s.Domains {
			d[k] = v
		}
		s.Domains = d
	}
	return s
}

// paramAxis splits a builder-parameter axis ("param.k" -> "k", true); other
// axis params return false.
func paramAxis(param string) (string, bool) {
	return strings.CutPrefix(param, "param.")
}

// PointResult is one sweep point's executed outcome.
type PointResult struct {
	Index  int     `json:"index"`
	Values []Value `json:"values"`
	Seeds  []int64 `json:"seeds"`
	// Failed counts replicates whose run errored; Errors holds their
	// messages in replicate order.
	Failed int      `json:"failed,omitempty"`
	Errors []string `json:"errors,omitempty"`
	// Metrics aggregates each selected flattened result field across the
	// successful replicates.
	Metrics map[string]stats.Summary `json:"metrics,omitempty"`
	// Results are the raw replicate results (successful ones, in replicate
	// order); kept for callers that post-process beyond the summaries, and
	// deliberately excluded from the JSON emitter.
	Results []*scenario.Result `json:"-"`
}

// CampaignResult is the executed campaign: one PointResult per point, in
// expansion order.
type CampaignResult struct {
	Name string `json:"name,omitempty"`
	// Params lists the axis params, in axis order (the CSV column order).
	Params     []string      `json:"params"`
	Replicates int           `json:"replicates"`
	Points     []PointResult `json:"points"`
}

// Run expands the campaign and executes every spec through the runner. The
// runner's worker count changes wall-clock time only: results, summaries and
// the emitted CSV/JSON are byte-identical for any Parallel setting.
func (c Campaign) Run(r scenario.Runner) (*CampaignResult, error) {
	points, err := c.Expand()
	if err != nil {
		return nil, err
	}
	var specs []scenario.Spec
	for _, pt := range points {
		specs = append(specs, pt.Specs...)
	}
	outcomes := r.RunAll(specs)

	metrics := c.Metrics
	if len(metrics) == 0 {
		metrics = DefaultMetrics
	}
	res := &CampaignResult{
		Name:       c.Name,
		Replicates: len(points[0].Seeds),
		Points:     make([]PointResult, 0, len(points)),
	}
	for _, a := range c.Axes {
		res.Params = append(res.Params, a.Param)
	}
	next := 0
	for _, pt := range points {
		pr := PointResult{Index: pt.Index, Values: pt.Values, Seeds: pt.Seeds}
		var flats []map[string]float64
		for range pt.Specs {
			o := outcomes[next]
			next++
			if o.Err != "" {
				pr.Failed++
				pr.Errors = append(pr.Errors, o.Err)
				continue
			}
			pr.Results = append(pr.Results, o.Result)
			flats = append(flats, Flatten(o.Result))
		}
		if len(flats) > 0 {
			pr.Metrics = make(map[string]stats.Summary)
			for _, key := range selectKeys(flats, metrics) {
				var vals []float64
				for _, f := range flats {
					if v, ok := f[key]; ok {
						vals = append(vals, v)
					}
				}
				pr.Metrics[key] = stats.Summarize(vals)
			}
		}
		res.Points = append(res.Points, pr)
	}
	return res, nil
}
