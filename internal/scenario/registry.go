package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
)

// registry maps each scenario name to its factory. A factory builds a fresh,
// unshared Spec from name=value parameters (cmsim -param flags, a campaign's
// params, sweep param.* axes); a nil map yields the defaults.
var registry = map[string]func(map[string]float64) (Spec, error){
	"dumbbell": fixed(func() Spec {
		return Dumbbell(DumbbellParams{Senders: 2, Receivers: 2, FlowsPerPair: 2, CrossProduct: true, Bytes: 2 << 20})
	}),
	"dumbbell-native": fixed(func() Spec {
		return Dumbbell(DumbbellParams{Senders: 2, Receivers: 2, FlowsPerPair: 2, CrossProduct: true, Bytes: 2 << 20, CC: CCNative})
	}),
	"parkinglot":     fixed(func() Spec { return ParkingLot(ParkingLotParams{Hops: 3}) }),
	"star":           fixed(func() Spec { return Star(StarParams{Leaves: 4}) }),
	"p2p":            pointToPointFromParams(CCCM),
	"p2p-native":     pointToPointFromParams(CCNative),
	"wireless":       fixed(func() Spec { return Wireless(WirelessParams{}) }),
	"asymmetric":     fixed(func() Spec { return Asymmetric(AsymmetricParams{}) }),
	"flaky-dumbbell": fixed(func() Spec { return FlakyDumbbell(FlakyDumbbellParams{}) }),
	"grid":           fixed(func() Spec { return DumbbellGrid(GridParams{}) }),
	"webmix":         fixed(func() Spec { return WebMix(WebMixParams{}) }),
	"churn":          fixed(func() Spec { return Churn(ChurnParams{}) }),
	"fattree":        fatTreeFromParams,
	"isp":            ispFromParams,
	"routeflap":      routeFlapFromParams,
}

// Lookup returns a fresh spec for the named scenario with its defaults.
func Lookup(name string) (Spec, error) { return LookupParams(name, nil) }

// LookupParams returns a fresh spec for the named scenario built with the
// given parameters. A nil or empty map yields the defaults.
func LookupParams(name string, params map[string]float64) (Spec, error) {
	f, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (use List for the catalogue)", name)
	}
	spec, err := f(params)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario %q: %w", name, err)
	}
	spec.Name = name
	// Parameters can describe a spec Build would refuse (a negative queue
	// limit, say); refuse it here, as a bad parameter is refused.
	checked := spec
	checked.fillDefaults()
	if err := checked.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// List returns the registered scenario names in sorted order.
func List() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns the one-line description of a registered scenario.
func Describe(name string) string {
	spec, err := Lookup(name)
	if err != nil {
		return ""
	}
	return spec.Description
}

// fixed is the factory of a scenario that takes no parameters.
func fixed(build func() Spec) func(map[string]float64) (Spec, error) {
	return func(params map[string]float64) (Spec, error) {
		if err := decodeParams(params); err != nil {
			return Spec{}, err
		}
		return build(), nil
	}
}

// param is one knob of a parameterised scenario: its name and the setter
// that stores a value in the builder's field, reporting false when the value
// does not fit the field's type.
type param struct {
	name string
	set  func(v float64) bool
}

// integer is a knob of an integer field; a fractional value is an error (a
// sweep axis like param.k=4.5 is a spec error, not something to round
// silently).
func integer[T int | int64](name string, field *T) param {
	return param{name, func(v float64) bool { *field = T(v); return float64(*field) == v }}
}

// number is a knob of a real-valued field, taken as is.
func number[T float64 | netsim.Bandwidth](name string, field *T) param {
	return param{name, func(v float64) bool { *field = T(v); return true }}
}

// seconds is a knob of a duration field, given in seconds.
func seconds(name string, field *time.Duration) param {
	return param{name, func(v float64) bool { *field = time.Duration(v * float64(time.Second)); return true }}
}

// decodeParams stores each named value in its knob's field. It rejects an
// unknown name before it reads any value, then checks values in table order,
// so the same input always draws the same error whatever the map's order.
func decodeParams(params map[string]float64, table ...param) error {
	accepted := make([]string, len(table))
	for i, p := range table {
		accepted[i] = p.name
	}
	var unknown []string
	for name := range params {
		if !slices.Contains(accepted, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		takes := strings.Join(accepted, ", ")
		if takes == "" {
			takes = "none"
		}
		return fmt.Errorf("unknown parameter %q (takes %s)", slices.Min(unknown), takes)
	}
	for _, p := range table {
		if v, ok := params[p.name]; ok && !p.set(v) {
			return fmt.Errorf("parameter %q must be an integer, got %v", p.name, v)
		}
	}
	return nil
}

// pointToPointFromParams is the factory of the p2p scenarios: one bulk
// workload over the two-host path, its knobs in the sweep grammar's names
// and units (bandwidth in bit/s, one-way delay and duration in seconds, loss
// as a rate).
func pointToPointFromParams(cc string) func(map[string]float64) (Spec, error) {
	return func(params map[string]float64) (Spec, error) {
		var p PointToPointParams
		w := Workload{Kind: KindBulk, From: "sender", To: "receiver", Bytes: 2 << 20, CC: cc}
		err := decodeParams(params,
			number("bandwidth", &p.Link.Bandwidth), seconds("delay", &p.Link.Delay),
			number("loss", &p.Link.LossRate), integer("queue", &p.Link.QueuePackets),
			integer("bytes", &w.Bytes), integer("flows", &w.Flows),
			seconds("duration", &p.Duration), integer("seed", &p.Seed))
		if err != nil {
			return Spec{}, err
		}
		p.Workloads = []Workload{w}
		return PointToPoint(p), nil
	}
}
