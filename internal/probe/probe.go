package probe

import (
	"fmt"
	"path"
	"strconv"
	"strings"
	"time"
)

// DefaultInterval is the sampling period of a probe that leaves Interval
// zero. 250 ms matches the coarsest granularity visible in the paper's
// adaptation figures.
const DefaultInterval = 250 * time.Millisecond

// Spec declares one mid-run sampling probe. The target path addresses the
// sampled quantity; see ParseTarget for the grammar.
type Spec struct {
	// Target is the probe path, e.g. "link[0].queue_depth", "cm[s0].rate",
	// "host[d1].received_bytes" or "shard.lookahead".
	Target string `json:"target"`
	// Interval is the sampling period (DefaultInterval when zero). The first
	// sample is taken one interval into the run and the last at the interval
	// multiple that is <= the scenario duration.
	Interval time.Duration `json:"interval,omitempty"`
	// Name overrides the series name (default: the target path).
	Name string `json:"name,omitempty"`
}

// SeriesName returns the name the probe's series will carry.
func (p Spec) SeriesName() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Target
}

// Target kinds.
const (
	TargetLink  = "link"
	TargetHost  = "host"
	TargetCM    = "cm"
	TargetShard = "shard"
	// TargetLinks and TargetHosts are the aggregate families: a glob over
	// directional link names (node names), sampled as the sum of the field
	// across every match.
	TargetLinks = "links"
	TargetHosts = "hosts"
)

// Target is a parsed probe path.
type Target struct {
	// Kind is TargetLink, TargetHost, TargetCM, TargetShard, TargetLinks or
	// TargetHosts.
	Kind string
	// Index is the Spec.Links index of a TargetLink (forward direction).
	Index int
	// Host is the host name of a TargetHost or TargetCM.
	Host string
	// Pattern is the path.Match glob of an aggregate target (TargetLinks
	// matches directional link names like "a<->b-fwd", TargetHosts node
	// names).
	Pattern string
	// Field is the sampled quantity.
	Field string
}

// ParseTarget parses a probe path. The grammar mirrors the sweep axis
// language:
//
//	link[<index>].<field>   index into Spec.Links (forward direction)
//	host[<name>].<field>    a node by name
//	cm[<host>].<field>      the Congestion Manager on a host
//	shard.<field>           the sharded-execution plan
//	links.<glob>.<field>    sum of <field> over every directional link whose
//	                        name matches the path.Match glob ("*p0*-fwd")
//	hosts.<glob>.<field>    sum of <field> over every node name matching
//	                        the glob ("h*.e0.p0")
//
// Host names may themselves contain dots and brackets-free suffixes
// ("h0.e1.p2"), so the field is whatever follows the bracket's closing "]".
// In the aggregate families the field is the segment after the last dot;
// everything between the kind and the field is the glob (globs and names may
// contain dots, fields never do).
//
// ParseTarget checks the path's syntax only: which fields a kind has, and
// how each is read, is scenario's field table (scenario.ParseProbeTarget).
func ParseTarget(s string) (Target, error) {
	if open := strings.IndexByte(s, '['); open >= 0 {
		closing := strings.IndexByte(s, ']')
		if closing < open {
			return Target{}, fmt.Errorf("probe target %q: unbalanced brackets", s)
		}
		t := Target{Kind: s[:open]}
		arg := s[open+1 : closing]
		rest := s[closing+1:]
		if !strings.HasPrefix(rest, ".") || len(rest) < 2 {
			return Target{}, fmt.Errorf("probe target %q: missing field after %q", s, s[:closing+1])
		}
		t.Field = rest[1:]
		switch t.Kind {
		case TargetLink:
			idx, err := strconv.Atoi(arg)
			if err != nil || idx < 0 {
				return Target{}, fmt.Errorf("probe target %q: link index %q must be a non-negative integer", s, arg)
			}
			t.Index = idx
			return t, nil
		case TargetHost, TargetCM:
			if arg == "" {
				return Target{}, fmt.Errorf("probe target %q: empty host name", s)
			}
			t.Host = arg
			return t, nil
		default:
			return Target{}, fmt.Errorf("probe target %q: unknown kind %q (want link, host, cm or shard)", s, t.Kind)
		}
	}
	kind, rest, ok := strings.Cut(s, ".")
	if !ok || rest == "" {
		return Target{}, fmt.Errorf("probe target %q: want link[i].<field>, host[name].<field>, cm[host].<field>, shard.<field>, links.<glob>.<field> or hosts.<glob>.<field>", s)
	}
	switch kind {
	case TargetShard:
		return Target{Kind: TargetShard, Field: rest}, nil
	case TargetLinks, TargetHosts:
		dot := strings.LastIndexByte(rest, '.')
		if dot <= 0 || dot == len(rest)-1 {
			return Target{}, fmt.Errorf("probe target %q: want %s.<glob>.<field>", s, kind)
		}
		t := Target{Kind: kind, Pattern: rest[:dot], Field: rest[dot+1:]}
		if _, err := path.Match(t.Pattern, ""); err != nil {
			return Target{}, fmt.Errorf("probe target %q: bad glob %q: %w", s, t.Pattern, err)
		}
		return t, nil
	}
	return Target{}, fmt.Errorf("probe target %q: unknown kind %q (want link, host, cm, shard, links or hosts)", s, kind)
}
