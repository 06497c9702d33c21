package cm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// ---------------------------------------------------------------------------
// The reference CM: the flow table as CM had it before handles indexed a slot
// table. FlowIDs count up from zero and are never reissued, one map finds a
// flow by handle and another by key, and every entry point is written straight
// from its doc comment. The macroflows, schedulers and controllers are the
// real ones, held with the counters by an engine CM whose own flow table stays
// empty: the differential test below holds the handle machinery — issue,
// lookup, staleness, both charge paths — to the maps, not the congestion
// control, which no part of this change touches.
// ---------------------------------------------------------------------------

type refCM struct {
	eng   *CM
	next  FlowID
	flows map[FlowID]*flowState
	byKey map[netsim.FlowKey]*flowState
}

func newRefCM(s *simtime.Scheduler, opts ...Option) *refCM {
	return &refCM{
		eng:   New(s, s, opts...),
		flows: map[FlowID]*flowState{},
		byKey: map[netsim.FlowKey]*flowState{},
	}
}

// lookup is the map read every entry point starts with; a miss counts one
// StaleFlowCalls.
func (r *refCM) lookup(f FlowID) (*flowState, bool) {
	fl, ok := r.flows[f]
	if !ok {
		r.eng.acct.StaleFlowCalls++
	}
	return fl, ok
}

func (r *refCM) Open(proto netsim.Protocol, src, dst netsim.Addr) FlowID {
	e := r.eng
	e.acct.Opens++
	key := netsim.FlowKey{Proto: proto, Src: src, Dst: dst}
	if fl, ok := r.byKey[key]; ok {
		return fl.id
	}
	id := r.next
	r.next++
	mf := e.macroflowFor(macroflowKey{dstHost: dst.Host})
	fl := &flowState{
		id:         id,
		key:        key,
		mf:         mf,
		dispatcher: DirectDispatcher(),
		threshDown: defaultThreshDown,
		threshUp:   defaultThreshUp,
		weight:     1,
		open:       true,
	}
	r.flows[id] = fl
	r.byKey[key] = fl
	mf.rr.add(fl)
	return id
}

func (r *refCM) Close(f FlowID) {
	fl, ok := r.lookup(f)
	if !ok {
		return
	}
	r.eng.acct.Closes++
	fl.open = false
	fl.mf.removeFlow(fl)
	delete(r.byKey, fl.key)
	delete(r.flows, f)
}

func (r *refCM) Lookup(key netsim.FlowKey) FlowID {
	if fl, ok := r.byKey[key]; ok {
		return fl.id
	}
	return InvalidFlow
}

func (r *refCM) RegisterSender(f FlowID, to Sender) {
	if fl, ok := r.lookup(f); ok {
		fl.sender = to
	}
}

func (r *refCM) RegisterUpdate(f FlowID, cb UpdateCallback) {
	if fl, ok := r.lookup(f); ok {
		fl.updateCB = cb
	}
}

func (r *refCM) SetWeight(f FlowID, w float64) {
	if fl, ok := r.lookup(f); ok && w >= minWeight && !math.IsInf(w, 1) {
		fl.mf.rr.setWeight(fl, w)
	}
}

func (r *refCM) Thresh(f FlowID, down, up float64) {
	fl, ok := r.lookup(f)
	if !ok {
		return
	}
	if down > 1 {
		fl.threshDown = down
	}
	if up > 1 {
		fl.threshUp = up
	}
}

func (r *refCM) Request(f FlowID) {
	fl, ok := r.lookup(f)
	if !ok {
		return
	}
	r.eng.acct.Requests++
	fl.pendingRequests++
	if fl.pendingRequests == 1 {
		fl.mf.rr.markEligible(fl)
	}
	fl.mf.pump()
}

// BulkRequest pumps the touched macroflows in the order the list first names
// them.
func (r *refCM) BulkRequest(flows []FlowID) {
	r.eng.acct.BulkRequests++
	var touched []*Macroflow
	seen := map[*Macroflow]bool{}
	for _, f := range flows {
		fl, ok := r.lookup(f)
		if !ok {
			continue
		}
		fl.pendingRequests++
		if fl.pendingRequests == 1 {
			fl.mf.rr.markEligible(fl)
		}
		if !seen[fl.mf] {
			seen[fl.mf] = true
			touched = append(touched, fl.mf)
		}
	}
	for _, mf := range touched {
		mf.pump()
	}
}

func (r *refCM) Notify(f FlowID, nsent int) {
	if fl, ok := r.lookup(f); ok {
		r.eng.notifyFlow(fl, nsent)
	}
}

func (r *refCM) NotifyTransmit(key netsim.FlowKey, nbytes int) {
	if fl, ok := r.byKey[key]; ok {
		r.eng.notifyFlow(fl, nbytes)
	}
}

// chargeStamped is the IP output hook for a packet carrying handle f: the
// flow f names if it is open, else nothing, and never a StaleFlowCalls.
func (r *refCM) chargeStamped(f FlowID, _ netsim.FlowKey, nbytes int) {
	if fl, ok := r.flows[f]; ok {
		r.eng.notifyFlow(fl, nbytes)
	}
}

// chargeUnstamped is the IP output hook for a packet carrying no handle.
func (r *refCM) chargeUnstamped(key netsim.FlowKey, nbytes int) { r.NotifyTransmit(key, nbytes) }

func (r *refCM) Update(f FlowID, nsent, nrecd int, mode LossMode, rtt time.Duration) {
	fl, ok := r.lookup(f)
	if !ok {
		return
	}
	r.eng.acct.Updates++
	fl.mf.update(fl, max(nsent, 0), max(nrecd, 0), mode, rtt)
}

func (r *refCM) BulkUpdate(updates []UpdateArgs) {
	r.eng.acct.BulkUpdates++
	for _, u := range updates {
		if fl, ok := r.lookup(u.Flow); ok {
			fl.mf.update(fl, max(u.Sent, 0), max(u.Received, 0), u.Mode, u.RTT)
		}
	}
}

func (r *refCM) Query(f FlowID) (Status, bool) {
	fl, ok := r.lookup(f)
	if !ok {
		return Status{}, false
	}
	r.eng.acct.Queries++
	return fl.mf.status(fl), true
}

func (r *refCM) SplitFlow(f FlowID) {
	fl, ok := r.lookup(f)
	if !ok || fl.mf.FlowCount() == 1 {
		return
	}
	e := r.eng
	fl.mf.removeFlow(fl)
	e.nextMFTag++
	mf := e.macroflowFor(macroflowKey{dstHost: fl.key.Dst.Host, tag: e.nextMFTag})
	fl.mf = mf
	mf.rr.add(fl)
}

func (r *refCM) MergeFlows(a, b FlowID) {
	fa, okA := r.lookup(a)
	fb, okB := r.lookup(b)
	if !okA || !okB || fa.mf == fb.mf {
		return
	}
	fb.mf.removeFlow(fb)
	fb.mf = fa.mf
	fa.mf.rr.add(fb)
}

// Restart lets the engine discard the macroflows and bump the epoch, then
// drops both maps; the handle counter runs on.
func (r *refCM) Restart() int {
	wiped := len(r.flows)
	r.eng.Restart()
	r.flows = map[FlowID]*flowState{}
	r.byKey = map[netsim.FlowKey]*flowState{}
	return wiped
}

func (r *refCM) FlowCount() int { return len(r.flows) }

func (r *refCM) FlowInfo(f FlowID) FlowInfo {
	fl, ok := r.flows[f]
	if !ok {
		return FlowInfo{ID: InvalidFlow}
	}
	return FlowInfo{
		ID:              fl.id,
		Key:             fl.key,
		PendingRequests: fl.pendingRequests,
		UnclaimedGrants: fl.unclaimedGrants,
		GrantsReceived:  fl.grantsReceived,
		BytesCharged:    fl.bytesCharged,
		Weight:          fl.weight,
	}
}

func (r *refCM) Audit() AuditReport {
	var a AuditReport
	a.Flows = len(r.flows)
	for _, fl := range r.flows {
		a.PendingRequests += fl.pendingRequests
		a.UnclaimedGrants += fl.unclaimedGrants
		if fl.pendingRequests < 0 {
			a.NegativePending++
		}
		if fl.pendingRequests > 0 && fl.sender != nil && fl.mf.windowOpen() {
			a.StrandedFlows++
		}
	}
	for _, mf := range r.eng.macroflows {
		a.OutstandingGrants += len(mf.grants)
	}
	return a
}

func (r *refCM) Accounting() Accounting { return r.eng.acct }

// realCM puts the IP output hook's two packet kinds behind the same methods
// the reference has.
type realCM struct{ *CM }

func (c realCM) chargeStamped(f FlowID, key netsim.FlowKey, nbytes int) {
	p := &netsim.Packet{Proto: key.Proto, Src: key.Src, Dst: key.Dst}
	p.SetCMFlow(int64(f))
	c.NotifyPacket(p, nbytes)
}

func (c realCM) chargeUnstamped(key netsim.FlowKey, nbytes int) {
	c.NotifyPacket(&netsim.Packet{Proto: key.Proto, Src: key.Src, Dst: key.Dst}, nbytes)
}

// testCM is what a trace can do to either CM.
type testCM interface {
	Open(proto netsim.Protocol, src, dst netsim.Addr) FlowID
	Close(f FlowID)
	Lookup(key netsim.FlowKey) FlowID
	RegisterSender(f FlowID, to Sender)
	RegisterUpdate(f FlowID, cb UpdateCallback)
	SetWeight(f FlowID, w float64)
	Thresh(f FlowID, down, up float64)
	Request(f FlowID)
	BulkRequest(flows []FlowID)
	Notify(f FlowID, nsent int)
	NotifyTransmit(key netsim.FlowKey, nbytes int)
	chargeStamped(f FlowID, key netsim.FlowKey, nbytes int)
	chargeUnstamped(key netsim.FlowKey, nbytes int)
	Update(f FlowID, nsent, nrecd int, mode LossMode, rtt time.Duration)
	BulkUpdate(updates []UpdateArgs)
	Query(f FlowID) (Status, bool)
	SplitFlow(f FlowID)
	MergeFlows(a, b FlowID)
	Restart() int
	FlowCount() int
	FlowInfo(f FlowID) FlowInfo
	Audit() AuditReport
	Accounting() Accounting
}

// ---------------------------------------------------------------------------
// The trace interpreter. A trace is a byte string; each step advances the
// clock (so grant timeouts and feedback starvation fire) and applies one
// operation. Handles differ between the two CMs by design, so a trace names a
// flow by its issue index — the position of its handle among all handles the
// CM has returned — and logs handles the same way. A few raw handles that no
// CM in a trace ever issues (negative, past the table, a far generation) are
// passed unchanged to both.
// ---------------------------------------------------------------------------

const traceMTU = 1000

var (
	traceKeys = func() []netsim.FlowKey {
		var ks []netsim.FlowKey
		for _, proto := range []netsim.Protocol{netsim.ProtoTCP, netsim.ProtoUDP} {
			for _, port := range []int{1, 2} {
				for _, dst := range []string{"d0", "d1"} {
					ks = append(ks, netsim.FlowKey{Proto: proto, Src: netsim.Addr{Host: "s", Port: port}, Dst: netsim.Addr{Host: dst, Port: 80}})
				}
			}
		}
		return ks
	}()
	traceBogus = []FlowID{InvalidFlow, -1 << 40, 1<<31 - 1, 1<<50 | 1}
)

// cmRec is one log entry: everything an operation let the caller observe.
type cmRec struct {
	op    string
	ret   int
	calls string // grant and rate callbacks delivered during the op
	info  string // FlowInfo of every handle issued so far
	acct  Accounting
	audit AuditReport
	flows int
}

type cmInterp struct {
	data  []byte
	pos   int
	sched *simtime.Scheduler
	c     testCM
	ids   []FlowID // every handle returned, in first-return order
	calls strings.Builder
	log   []cmRec
}

func (in *cmInterp) byte() int {
	if in.pos >= len(in.data) {
		return 0
	}
	b := in.data[in.pos]
	in.pos++
	return int(b)
}

// index maps a handle to its issue index, -1 for one never returned.
func (in *cmInterp) index(f FlowID) int {
	for i, id := range in.ids {
		if id == f {
			return i
		}
	}
	return -1
}

// issued records a handle Open returned and returns its issue index.
func (in *cmInterp) issued(f FlowID) int {
	if i := in.index(f); i >= 0 {
		return i
	}
	in.ids = append(in.ids, f)
	return len(in.ids) - 1
}

// handle picks an issued handle, live or dead, or now and then a bogus one.
func (in *cmInterp) handle() FlowID {
	b := in.byte()
	if len(in.ids) == 0 || b%8 == 7 {
		return traceBogus[b%len(traceBogus)]
	}
	return in.ids[b%len(in.ids)]
}

func (in *cmInterp) key() netsim.FlowKey { return traceKeys[in.byte()%len(traceKeys)] }

// sender is a client's cmapp_send: it logs the grant and then holds it,
// claims it, declines it, or claims it and asks again.
type traceSender struct {
	in   *cmInterp
	mode int
}

func (s traceSender) CMAppSend(f FlowID) {
	in := s.in
	fmt.Fprintf(&in.calls, "g%d ", in.index(f))
	switch s.mode {
	case 1:
		in.c.Notify(f, traceMTU)
	case 2:
		in.c.Notify(f, 0)
	case 3:
		in.c.Notify(f, traceMTU)
		in.c.Request(f)
	}
}

func (in *cmInterp) onUpdate(f FlowID, st Status) {
	fmt.Fprintf(&in.calls, "u%d/%d/%d ", in.index(f), st.CWND, st.Outstanding)
}

func (in *cmInterp) note(op string, ret int) {
	var info strings.Builder
	for _, id := range in.ids {
		fi := in.c.FlowInfo(id)
		fmt.Fprintf(&info, "%d:%v:%d:%d:%d:%d:%g ", in.index(fi.ID), fi.Key,
			fi.PendingRequests, fi.UnclaimedGrants, fi.GrantsReceived, fi.BytesCharged, fi.Weight)
	}
	in.log = append(in.log, cmRec{
		op: op, ret: ret, calls: in.calls.String(), info: info.String(),
		acct: in.c.Accounting(), audit: in.c.Audit(), flows: in.c.FlowCount(),
	})
	in.calls.Reset()
}

func (in *cmInterp) op() {
	c := in.c
	switch in.byte() % 20 {
	case 0, 1:
		k := in.key()
		i := in.issued(c.Open(k.Proto, k.Src, k.Dst))
		c.RegisterSender(in.ids[i], traceSender{in: in, mode: in.byte() % 4})
		in.note("Open", i)
	case 2:
		c.Close(in.handle())
		in.note("Close", 0)
	case 3, 4:
		c.Request(in.handle())
		in.note("Request", 0)
	case 5:
		flows := make([]FlowID, in.byte()%4)
		for i := range flows {
			flows[i] = in.handle()
		}
		c.BulkRequest(flows)
		in.note("BulkRequest", 0)
	case 6:
		c.Notify(in.handle(), in.byte()*8)
		in.note("Notify", 0)
	case 7:
		c.NotifyTransmit(in.key(), in.byte()*8)
		in.note("NotifyTransmit", 0)
	case 8, 9:
		// A stamped packet carries its flow's key, or a stray key with a
		// bogus handle.
		f := in.handle()
		k := in.key()
		if fi := c.FlowInfo(f); fi.ID != InvalidFlow {
			k = fi.Key
		}
		c.chargeStamped(f, k, in.byte()*8)
		in.note("NotifyPacket(stamped)", 0)
	case 10:
		c.chargeUnstamped(in.key(), in.byte()*8)
		in.note("NotifyPacket(unstamped)", 0)
	case 11, 12:
		sent := in.byte() * 16
		c.Update(in.handle(), sent, sent-in.byte()%2*traceMTU, LossMode(in.byte()%4), time.Duration(in.byte()%50)*time.Millisecond)
		in.note("Update", 0)
	case 13:
		c.BulkUpdate([]UpdateArgs{
			{Flow: in.handle(), Sent: traceMTU, Received: traceMTU, RTT: 10 * time.Millisecond},
			{Flow: in.handle(), Sent: traceMTU, Mode: TransientLoss},
		})
		in.note("BulkUpdate", 0)
	case 14:
		st, ok := c.Query(in.handle())
		ret := -1
		if ok {
			ret = st.CWND
		}
		in.note("Query", ret)
	case 15:
		in.note("Restart", c.Restart())
	case 16:
		c.SplitFlow(in.handle())
		in.note("SplitFlow", 0)
	case 17:
		c.MergeFlows(in.handle(), in.handle())
		in.note("MergeFlows", 0)
	case 18:
		f := in.handle()
		c.RegisterUpdate(f, in.onUpdate)
		c.Thresh(f, 1+float64(in.byte()%3)/4, 1+float64(in.byte()%3)/4)
		c.SetWeight(f, float64(in.byte()%3))
		in.note("RegisterUpdate", 0)
	case 19:
		in.note("Lookup", in.index(c.Lookup(in.key())))
	}
}

// runCMTrace applies a trace to one CM on a scheduler of its own and returns
// the log.
func runCMTrace(data []byte, build func(*simtime.Scheduler, ...Option) testCM) []cmRec {
	in := &cmInterp{data: data, sched: simtime.NewScheduler()}
	in.c = build(in.sched, WithMTU(traceMTU), WithGrantTimeout(8*time.Millisecond),
		WithFeedbackStarvationTimeout(30*time.Millisecond))
	for in.pos < len(in.data) {
		in.sched.RunFor(time.Duration(in.byte()%8) * time.Millisecond)
		in.op()
	}
	return in.log
}

// checkCMTrace is the differential check shared by the seeded test and the
// fuzz target.
func checkCMTrace(t testing.TB, data []byte) {
	t.Helper()
	got := runCMTrace(data, func(s *simtime.Scheduler, opts ...Option) testCM { return realCM{New(s, s, opts...)} })
	want := runCMTrace(data, func(s *simtime.Scheduler, opts ...Option) testCM { return newRefCM(s, opts...) })
	if len(got) != len(want) {
		t.Fatalf("trace %x: CM logged %d records, reference %d", data, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace %x: record %d:\n    CM        %+v\n    reference %+v", data, i, got[i], want[i])
		}
	}
}

// TestCMMatchesReference holds the CM's slot-table flow handles to the
// map-keyed reference over seeded random traces.
func TestCMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trace := 0; trace < 2000; trace++ {
		data := make([]byte, 1+rng.Intn(240))
		rng.Read(data)
		checkCMTrace(t, data)
	}
}

// FuzzCMOps is the same differential check over fuzzer-chosen traces.
func FuzzCMOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0, 0, 2, 0, 0, 0, 0, 1, 0, 8, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("trace longer than any sequence worth shrinking")
		}
		checkCMTrace(t, data)
	})
}
