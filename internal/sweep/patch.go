package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// The axis param grammar is a tiny path language into a scenario.Spec:
//
//	seed | shards | duration
//	param.<name>   (builder parameters of a parameterised scenario, e.g.
//	                param.k on a fattree campaign; resolved at expansion by
//	                re-invoking the builder, since they reshape the topology)
//	link[i].{loss | bandwidth | delay | queue | seed |
//	         ge.p_good_bad | ge.p_bad_good | ge.loss_good | ge.loss_bad}
//	workload[i].{flows | bytes | rate | start | recv_window | cc | kind}
//	event[i].{at | drop_rate | delay_rate | duplicate_rate | delay | outage}
//	generator[i].{seed | mean | mean_up | mean_down | start | end}
//
// i is a zero-based index or * for every element. Durations (duration, delay,
// start, end, outage, mean*) are numeric seconds; bandwidth is bits
// per second; loss and the notify-fault rates are rates in [0, 1]. cc and
// kind are the only string-valued params.

// Apply patches one parameter of the spec. The caller owns spec deep enough
// for in-place writes (see cloneSpec); Apply never aliases new state into
// shared structures.
func Apply(spec *scenario.Spec, param string, v Value) error {
	head, rest, _ := strings.Cut(param, ".")
	name, index, err := parseIndex(head)
	if err != nil {
		return err
	}
	switch name {
	case "param":
		// Builder parameters (param.k on a fattree campaign) change the
		// topology itself, so they cannot patch an existing spec; Expand
		// resolves them by re-invoking the scenario's parameterised factory.
		return fmt.Errorf("sweep: param %q must be resolved at expansion (internal error: Apply reached a param.* axis)", param)
	case "seed", "shards", "duration":
		if rest != "" || index != indexNone {
			return fmt.Errorf("sweep: param %q: %q takes no index or field", param, name)
		}
		n, err := v.numeric(param)
		if err != nil {
			return err
		}
		switch name {
		case "seed":
			return setInt(&spec.Seed, param, n)
		case "shards":
			return setInt(&spec.Shards, param, n)
		}
		spec.Duration = seconds(n)
		return nil
	case "link":
		if index == indexNone {
			return fmt.Errorf("sweep: param %q: link needs an index ([0], [*])", param)
		}
		return eachIndex(index, len(spec.Links), param, func(i int) error {
			return applyLink(&spec.Links[i], param, rest, v)
		})
	case "workload":
		if index == indexNone {
			return fmt.Errorf("sweep: param %q: workload needs an index ([0], [*])", param)
		}
		return eachIndex(index, len(spec.Workloads), param, func(i int) error {
			return applyWorkload(&spec.Workloads[i], param, rest, v)
		})
	case "event":
		if index == indexNone {
			return fmt.Errorf("sweep: param %q: event needs an index ([0], [*])", param)
		}
		return eachIndex(index, len(spec.Events), param, func(i int) error {
			return applyEvent(&spec.Events[i], param, rest, v)
		})
	case "generator":
		if index == indexNone {
			return fmt.Errorf("sweep: param %q: generator needs an index ([0], [*])", param)
		}
		return eachIndex(index, len(spec.Generators), param, func(i int) error {
			return applyGenerator(&spec.Generators[i], param, rest, v)
		})
	}
	return fmt.Errorf("sweep: unknown param %q (want seed, shards, duration, link[i].*, workload[i].*, event[i].*, generator[i].*)", param)
}

const (
	indexNone = -1
	indexAll  = -2
)

// parseIndex splits "link[3]" into ("link", 3). A bare name returns
// indexNone; "[*]" returns indexAll.
func parseIndex(s string) (name string, index int, err error) {
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return s, indexNone, nil
	}
	if !strings.HasSuffix(s, "]") {
		return "", 0, fmt.Errorf("sweep: malformed index in %q", s)
	}
	name = s[:open]
	idx := s[open+1 : len(s)-1]
	if idx == "*" {
		return name, indexAll, nil
	}
	n, err := strconv.Atoi(idx)
	if err != nil || n < 0 {
		return "", 0, fmt.Errorf("sweep: malformed index in %q", s)
	}
	return name, n, nil
}

func eachIndex(index, n int, param string, fn func(int) error) error {
	if index == indexAll {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if index >= n {
		return fmt.Errorf("sweep: param %q: index %d out of range [0,%d)", param, index, n)
	}
	return fn(index)
}

func applyLink(l *scenario.LinkSpec, param, field string, v Value) error {
	if geField, ok := strings.CutPrefix(field, "ge."); ok {
		n, err := v.numeric(param)
		if err != nil {
			return err
		}
		if l.Gilbert == nil {
			l.Gilbert = &netsim.GilbertElliott{}
		} else {
			// The base spec may share one model pointer across clones;
			// patching always writes to a private copy.
			g := *l.Gilbert
			l.Gilbert = &g
		}
		switch geField {
		case "p_good_bad":
			l.Gilbert.PGoodBad = n
		case "p_bad_good":
			l.Gilbert.PBadGood = n
		case "loss_good":
			l.Gilbert.LossGood = n
		case "loss_bad":
			l.Gilbert.LossBad = n
		default:
			return fmt.Errorf("sweep: unknown link param %q", param)
		}
		return nil
	}
	n, err := v.numeric(param)
	if err != nil {
		return err
	}
	switch field {
	case "loss":
		l.LossRate = n
	case "bandwidth":
		l.Bandwidth = netsim.Bandwidth(n)
	case "delay":
		l.Delay = seconds(n)
	case "queue":
		return setInt(&l.QueuePackets, param, n)
	case "seed":
		return setInt(&l.Seed, param, n)
	default:
		return fmt.Errorf("sweep: unknown link param %q", param)
	}
	return nil
}

func applyWorkload(w *scenario.Workload, param, field string, v Value) error {
	switch field {
	case "cc":
		s, err := v.str(param)
		if err != nil {
			return err
		}
		w.CC = s
		return nil
	case "kind":
		s, err := v.str(param)
		if err != nil {
			return err
		}
		w.Kind = s
		return nil
	}
	n, err := v.numeric(param)
	if err != nil {
		return err
	}
	switch field {
	case "flows":
		return setInt(&w.Flows, param, n)
	case "bytes":
		return setInt(&w.Bytes, param, n)
	case "rate":
		w.Rate = n
	case "start":
		w.Start = seconds(n)
	case "recv_window":
		return setInt(&w.RecvWindow, param, n)
	default:
		return fmt.Errorf("sweep: unknown workload param %q", param)
	}
	return nil
}

func applyEvent(e *dynamics.Event, param, field string, v Value) error {
	n, err := v.numeric(param)
	if err != nil {
		return err
	}
	switch field {
	case "at":
		e.At = seconds(n)
	case "drop_rate":
		e.DropRate = n
	case "delay_rate":
		e.DelayRate = n
	case "duplicate_rate":
		e.DuplicateRate = n
	case "delay":
		e.Delay = seconds(n)
	case "outage":
		e.Outage = seconds(n)
	default:
		return fmt.Errorf("sweep: unknown event param %q", param)
	}
	return nil
}

func applyGenerator(g *dynamics.Generator, param, field string, v Value) error {
	n, err := v.numeric(param)
	if err != nil {
		return err
	}
	switch field {
	case "seed":
		return setInt(&g.Seed, param, n)
	case "mean":
		g.Mean = seconds(n)
	case "mean_up":
		g.MeanUp = seconds(n)
	case "mean_down":
		g.MeanDown = seconds(n)
	case "start":
		g.Start = seconds(n)
	case "end":
		g.End = seconds(n)
	default:
		return fmt.Errorf("sweep: unknown generator param %q", param)
	}
	return nil
}

// setInt stores n in an integer field. A fractional value, or one outside
// int64, is an error rather than something to round silently (as the
// registry's integer knobs refuse -param flows=2.5).
func setInt[T int | int64](field *T, param string, n float64) error {
	if n != math.Trunc(n) || n < math.MinInt64 || n >= math.MaxInt64 {
		return fmt.Errorf("sweep: param %q must be an integer, got %v", param, n)
	}
	*field = T(n)
	return nil
}

func seconds(v float64) time.Duration {
	return time.Duration(v * float64(time.Second))
}
