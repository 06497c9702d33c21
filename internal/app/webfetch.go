package app

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// FileServer is a web-server-like TCP service: on every accepted connection
// it waits for a request and responds with a fixed-size object, then closes
// its side — the workload of the paper's Figure 7 experiment. Whether its
// transmissions use native TCP congestion control or the CM is decided by the
// tcp.Config it is given.
type FileServer struct {
	host     *node.Host
	fileSize int
	cfg      tcp.Config
	listener *tcp.Listener

	requestsServed int64
	bytesServed    int64
}

// NewFileServer starts a file server on (host, port) serving objects of
// fileSize bytes.
func NewFileServer(h *node.Host, port, fileSize int, cfg tcp.Config) (*FileServer, error) {
	fs := &FileServer{host: h, fileSize: fileSize, cfg: cfg}
	l, err := tcp.Listen(h, port, cfg, fs.accept, nil)
	if err != nil {
		return nil, err
	}
	fs.listener = l
	return fs, nil
}

func (fs *FileServer) accept(ep *tcp.Endpoint, _ any) {
	responded := false
	ep.OnReceive(func(_ *tcp.Endpoint, _ any, n int) {
		if responded || n <= 0 {
			return
		}
		responded = true
		ep.Send(fs.fileSize)
		ep.Close()
		fs.requestsServed++
		fs.bytesServed += int64(fs.fileSize)
	})
}

// RequestsServed returns the number of requests answered.
func (fs *FileServer) RequestsServed() int64 { return fs.requestsServed }

// BytesServed returns the total bytes of file data queued for transmission.
func (fs *FileServer) BytesServed() int64 { return fs.bytesServed }

// Close stops accepting new connections.
func (fs *FileServer) Close() { fs.listener.Close() }

// FetchResult records one retrieval by the sequential fetch client.
type FetchResult struct {
	Index   int
	Start   time.Duration
	End     time.Duration
	Elapsed time.Duration
	Bytes   int64
}

// FetchClient performs sequential retrievals of the same object over fresh
// TCP connections — the unmodified (non-CM) web client of Figure 7. Each
// retrieval opens a new connection, sends a small request, reads the response
// until the server's FIN, and records the elapsed time.
type FetchClient struct {
	host        *node.Host
	server      netsim.Addr
	requestSize int
	clientCfg   tcp.Config

	results []FetchResult
	done    func([]FetchResult)
}

// NewFetchClient creates a client on host h fetching from server.
func NewFetchClient(h *node.Host, server netsim.Addr, requestSize int, clientCfg tcp.Config) *FetchClient {
	if requestSize <= 0 {
		requestSize = 200
	}
	return &FetchClient{host: h, server: server, requestSize: requestSize, clientCfg: clientCfg}
}

// Results returns the retrievals completed so far.
func (c *FetchClient) Results() []FetchResult {
	out := make([]FetchResult, len(c.results))
	copy(out, c.results)
	return out
}

// RunSequential performs count retrievals, waiting spacing between the end of
// one retrieval and the initiation of the next (the paper uses 9 retrievals
// of a 128 KB file with a 500 ms delay). The optional done callback runs when
// all retrievals have completed.
func (c *FetchClient) RunSequential(count int, spacing time.Duration, done func([]FetchResult)) {
	c.done = done
	c.fetch(0, count, spacing)
}

func (c *FetchClient) fetch(index, count int, spacing time.Duration) {
	if index >= count {
		if c.done != nil {
			c.done(c.Results())
		}
		return
	}
	sched := c.host.Clock()
	start := sched.Now()
	ep, err := tcp.Dial(c.host, c.server, c.clientCfg)
	if err != nil {
		// The port space is exhausted or misconfigured; report what we have.
		if c.done != nil {
			c.done(c.Results())
		}
		return
	}
	var received int64
	ep.OnEstablished(func(*tcp.Endpoint, any) {
		ep.Send(c.requestSize)
	})
	ep.OnReceive(func(_ *tcp.Endpoint, _ any, n int) { received += int64(n) })
	ep.OnClosed(func(*tcp.Endpoint, any) {
		end := sched.Now()
		c.results = append(c.results, FetchResult{
			Index:   index,
			Start:   start,
			End:     end,
			Elapsed: end - start,
			Bytes:   received,
		})
		// Finish our side of the connection, then schedule the next fetch.
		ep.Close()
		sched.Schedule(sched.Now()+spacing, simtime.KindWorkloadApp, func(any) { c.fetch(index+1, count, spacing) }, nil)
	})
}

// OnOffSource is a constant-bit-rate UDP traffic generator that alternates
// between on and off periods. The adaptation experiments use it as competing
// traffic so the bandwidth available to the adaptive application changes over
// time, as the cross-traffic on the paper's vBNS path did. It is deliberately
// not congestion controlled — it stands in for the uncooperative traffic the
// paper worries about.
type OnOffSource struct {
	sock       *udp.Socket
	sched      *simtime.Scheduler
	dst        netsim.Addr
	rate       float64 // bytes/second while on
	packetSize int
	onPeriod   time.Duration
	offPeriod  time.Duration

	on       bool
	running  bool
	phaseEnd time.Duration
	timer    simtime.EventTimer
	seq      int64
	sent     int64
}

// NewOnOffSource creates a cross-traffic source on host h sending to dst at
// rate bytes/second during on-periods.
func NewOnOffSource(h *node.Host, dst netsim.Addr, rate float64, packetSize int, onPeriod, offPeriod time.Duration) (*OnOffSource, error) {
	sock, err := udp.NewSocket(h, 0)
	if err != nil {
		return nil, err
	}
	if packetSize <= 0 {
		packetSize = 1000
	}
	s := &OnOffSource{
		sock:       sock,
		sched:      h.Clock(),
		dst:        dst,
		rate:       rate,
		packetSize: packetSize,
		onPeriod:   onPeriod,
		offPeriod:  offPeriod,
	}
	s.timer.Init(s.sched, simtime.KindWorkloadApp, fireTick, s)
	return s, nil
}

func fireTick(s any) { s.(*OnOffSource).tick() }

// Start begins generating traffic (starting with an on-period).
func (s *OnOffSource) Start() {
	if s.running {
		return
	}
	s.running = true
	s.on = true
	s.phaseEnd = s.sched.Now() + s.onPeriod
	s.tick()
}

// Stop halts traffic generation.
func (s *OnOffSource) Stop() {
	s.running = false
	s.timer.Stop()
}

// PacketsSent returns the number of cross-traffic packets generated.
func (s *OnOffSource) PacketsSent() int64 { return s.sent }

func (s *OnOffSource) tick() {
	if !s.running {
		return
	}
	now := s.sched.Now()
	if now >= s.phaseEnd {
		s.on = !s.on
		if s.on {
			s.phaseEnd = now + s.onPeriod
		} else {
			s.phaseEnd = now + s.offPeriod
		}
	}
	if s.on && s.rate > 0 {
		s.seq++
		d := udp.NewDatagram()
		d.Seq, d.Size = s.seq, s.packetSize
		s.sock.SendTo(s.dst, d)
		s.sent++
		s.timer.Reset(simtime.FromSeconds(float64(s.packetSize) / s.rate))
		return
	}
	// Off period: wake up when it ends.
	sleep := s.phaseEnd - now
	if sleep <= 0 {
		sleep = time.Millisecond
	}
	s.timer.Reset(sleep)
}
