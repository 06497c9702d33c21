// Package apicost models the end-system cost of the different transmission
// APIs compared in the paper's evaluation (Table 1, Figures 5 and 6).
//
// The paper measured wall-clock microseconds per packet on 600 MHz Pentium
// III hosts. Those absolute numbers are artifacts of the hardware; what the
// reproduction must preserve is the *structure* of the overhead: which
// operations each API performs per packet (Table 1) and therefore how the
// per-packet cost ordering and the worst-case throughput reduction (~25 %,
// ALF/noconnect versus TCP without delayed ACKs) come about.
//
// The model assigns a cost to each primitive operation (system call, data
// copy, gettimeofday, select descriptor, control-socket ioctl, kernel packet
// processing) and derives the per-packet cost of every API variant from its
// operation counts. The experiment harness uses it to regenerate Table 1 and
// Figures 5–6; cmperf's api.cm.* loops (bench/) measure the real cost of our
// CM operations, mirroring the paper's microbenchmarks.
package apicost

import (
	"fmt"
	"time"
)

// CostModel assigns a duration to each primitive end-system operation.
type CostModel struct {
	// Syscall is the base cost of entering and leaving the kernel once
	// (send, recv, select wakeup).
	Syscall time.Duration
	// CopyPerByte is the cost of copying one byte across the user/kernel
	// boundary.
	CopyPerByte time.Duration
	// Gettimeofday is the cost of one gettimeofday call (UDP clients
	// timestamp packets to compute RTTs in user space).
	Gettimeofday time.Duration
	// SelectPerDescriptor is the incremental cost of one extra descriptor in
	// the application's select set (the CM control socket).
	SelectPerDescriptor time.Duration
	// Ioctl is the cost of one control-socket ioctl (cm_request, cm_notify,
	// cm_update or the batched drain), on top of nothing — it already
	// includes the boundary crossing.
	Ioctl time.Duration
	// KernelPacketProcessing is the in-kernel cost of transmitting one data
	// packet (driver, IP, transport processing).
	KernelPacketProcessing time.Duration
	// KernelAckProcessing is the in-kernel cost of processing one
	// acknowledgement.
	KernelAckProcessing time.Duration
	// CMAccounting is the in-kernel bookkeeping the Congestion Manager adds
	// per packet (charging the macroflow, window arithmetic). The paper
	// measured this at well under 1 % of CPU for bulk TCP transfer.
	CMAccounting time.Duration
	// AckPacketSize is the size of an application-level acknowledgement
	// copied to user space by UDP-based clients.
	AckPacketSize int
}

// DefaultCosts returns a cost model calibrated so that the reproduction
// matches the paper's relative results: TCP/CM within a few percent of
// TCP/Linux, and ALF/noconnect costing roughly 25-35 % more per packet than
// TCP/CM without delayed ACKs at small packet sizes.
func DefaultCosts() CostModel {
	return CostModel{
		Syscall:                4 * time.Microsecond,
		CopyPerByte:            20 * time.Nanosecond,
		Gettimeofday:           500 * time.Nanosecond,
		SelectPerDescriptor:    500 * time.Nanosecond,
		Ioctl:                  2500 * time.Nanosecond,
		KernelPacketProcessing: 18 * time.Microsecond,
		KernelAckProcessing:    8 * time.Microsecond,
		CMAccounting:           500 * time.Nanosecond,
		AckPacketSize:          40,
	}
}

// Variant enumerates the transmission APIs compared in Figure 6 of the paper.
type Variant int

const (
	// TCPLinux is the unmodified in-kernel TCP baseline with delayed ACKs.
	TCPLinux Variant = iota
	// TCPCM is TCP with congestion control performed by the CM (in-kernel
	// client, delayed ACKs).
	TCPCM
	// TCPCMNoDelay is TCP/CM with delayed ACKs disabled, used by the paper
	// to equalise packet counts against the UDP-based clients.
	TCPCMNoDelay
	// Buffered is the congestion-controlled UDP socket: the application
	// sends with sendto and processes application-level ACKs in user space.
	Buffered
	// ALF is the request/callback API on a connected UDP socket: Buffered
	// plus an extra control socket in the select set and a cm_request ioctl
	// per packet.
	ALF
	// ALFNoConnect is the ALF API on an unconnected UDP socket, which
	// additionally requires an explicit cm_notify ioctl per packet because
	// the kernel cannot attribute the transmission to a flow.
	ALFNoConnect
)

// Variants lists all API variants in the order the paper presents them
// (cheapest first).
func Variants() []Variant {
	return []Variant{TCPLinux, TCPCM, TCPCMNoDelay, Buffered, ALF, ALFNoConnect}
}

// String names the variant using the paper's labels.
func (v Variant) String() string {
	switch v {
	case TCPLinux:
		return "TCP/Linux"
	case TCPCM:
		return "TCP/CM"
	case TCPCMNoDelay:
		return "TCP/CM nodelay"
	case Buffered:
		return "Buffered"
	case ALF:
		return "ALF"
	case ALFNoConnect:
		return "ALF/noconnect"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Operations counts the per-packet primitive operations an API variant
// performs at the sender. The increments from one row to the next reproduce
// Table 1 of the paper.
type Operations struct {
	// SendSyscalls is the number of send/sendto/write system calls.
	SendSyscalls int
	// PayloadCopies counts user-to-kernel copies of the payload.
	PayloadCopies int
	// RecvSyscalls counts user-space recv calls used to process feedback.
	RecvSyscalls int
	// AckCopies counts kernel-to-user copies of acknowledgement packets.
	AckCopies int
	// Gettimeofdays counts gettimeofday calls for user-space RTT sampling.
	Gettimeofdays int
	// Ioctls counts control-socket ioctls (cm_request, cm_notify).
	Ioctls int
	// ExtraSelectDescriptors counts additional descriptors the application
	// must include in its select set for the CM control socket.
	ExtraSelectDescriptors int
	// KernelAckFraction is the fraction of packets for which the kernel
	// processes an ACK (0.5 with delayed ACKs, 1.0 without).
	KernelAckFraction float64
	// UsesCM reports whether CM per-packet accounting applies.
	UsesCM bool
}

// OperationsFor returns the per-packet operation counts of a variant.
func OperationsFor(v Variant) Operations {
	switch v {
	case TCPLinux:
		return Operations{SendSyscalls: 1, PayloadCopies: 1, KernelAckFraction: 0.5}
	case TCPCM:
		return Operations{SendSyscalls: 1, PayloadCopies: 1, KernelAckFraction: 0.5, UsesCM: true}
	case TCPCMNoDelay:
		return Operations{SendSyscalls: 1, PayloadCopies: 1, KernelAckFraction: 1, UsesCM: true}
	case Buffered:
		// Table 1: "Buffered — 1 recv, 2 gettimeofday" on top of TCP/CM.
		return Operations{
			SendSyscalls: 1, PayloadCopies: 1, KernelAckFraction: 1, UsesCM: true,
			RecvSyscalls: 1, AckCopies: 1, Gettimeofdays: 2,
		}
	case ALF:
		// Table 1: "ALF — 1 cm_request (ioctl), 1 extra socket" on top of
		// Buffered.
		return Operations{
			SendSyscalls: 1, PayloadCopies: 1, KernelAckFraction: 1, UsesCM: true,
			RecvSyscalls: 1, AckCopies: 1, Gettimeofdays: 2,
			Ioctls: 1, ExtraSelectDescriptors: 1,
		}
	case ALFNoConnect:
		// Table 1: "ALF/noconnect — 1 cm_notify (ioctl)" on top of ALF.
		return Operations{
			SendSyscalls: 1, PayloadCopies: 1, KernelAckFraction: 1, UsesCM: true,
			RecvSyscalls: 1, AckCopies: 1, Gettimeofdays: 2,
			Ioctls: 2, ExtraSelectDescriptors: 1,
		}
	default:
		return Operations{}
	}
}

// PerPacketCost returns the modelled wall-clock cost of sending one packet of
// the given payload size (bytes) and processing its feedback, for a variant.
func PerPacketCost(v Variant, payloadBytes int, m CostModel) time.Duration {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	ops := OperationsFor(v)
	var cost time.Duration
	cost += time.Duration(ops.SendSyscalls) * m.Syscall
	cost += time.Duration(ops.PayloadCopies) * time.Duration(payloadBytes) * m.CopyPerByte
	cost += time.Duration(ops.RecvSyscalls) * m.Syscall
	cost += time.Duration(ops.AckCopies) * time.Duration(m.AckPacketSize) * m.CopyPerByte
	cost += time.Duration(ops.Gettimeofdays) * m.Gettimeofday
	cost += time.Duration(ops.Ioctls) * m.Ioctl
	cost += time.Duration(ops.ExtraSelectDescriptors) * m.SelectPerDescriptor
	cost += m.KernelPacketProcessing
	cost += time.Duration(float64(m.KernelAckProcessing) * ops.KernelAckFraction)
	if ops.UsesCM {
		cost += m.CMAccounting
	}
	return cost
}

// Throughput returns the CPU-bound throughput in bytes/second implied by the
// per-packet cost for a payload size: the rate at which a single CPU could
// push packets if the network were not the bottleneck.
func Throughput(v Variant, payloadBytes int, m CostModel) float64 {
	c := PerPacketCost(v, payloadBytes, m)
	if c <= 0 {
		return 0
	}
	return float64(payloadBytes) / c.Seconds()
}

// CPUUtilization models the sender CPU utilisation of a variant while
// transmitting at the given network rate (bytes/second) with the given packet
// size: the fraction of each second spent in per-packet processing. Values
// are clamped to [0, 1]. It reproduces Figure 5's comparison between
// TCP/Linux and TCP/CM at link saturation.
func CPUUtilization(v Variant, payloadBytes int, networkBytesPerSec float64, m CostModel) float64 {
	if payloadBytes <= 0 || networkBytesPerSec <= 0 {
		return 0
	}
	pktPerSec := networkBytesPerSec / float64(payloadBytes)
	u := pktPerSec * PerPacketCost(v, payloadBytes, m).Seconds()
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}

// Table1Row is one row of the reproduction of Table 1: the operations an API
// adds relative to the previous (cheaper) one.
type Table1Row struct {
	Variant    Variant
	AddedOps   string
	TotalOps   Operations
	DeltaAtMTU time.Duration // added per-packet cost at a 1460-byte payload
}

// Table1 reproduces the paper's Table 1: cumulative sources of overhead for
// the different APIs relative to sending data with TCP.
func Table1(m CostModel) []Table1Row {
	const payload = 1460
	rows := []struct {
		v     Variant
		added string
	}{
		{ALFNoConnect, "1 cm_notify (ioctl)"},
		{ALF, "1 cm_request (ioctl), 1 extra socket"},
		{Buffered, "1 recv, 2 gettimeofday"},
		{TCPCM, "-baseline-"},
	}
	prev := map[Variant]Variant{
		ALFNoConnect: ALF,
		ALF:          Buffered,
		Buffered:     TCPCMNoDelay,
		TCPCM:        TCPCM,
	}
	out := make([]Table1Row, 0, len(rows))
	for _, r := range rows {
		delta := PerPacketCost(r.v, payload, m) - PerPacketCost(prev[r.v], payload, m)
		out = append(out, Table1Row{
			Variant:    r.v,
			AddedOps:   r.added,
			TotalOps:   OperationsFor(r.v),
			DeltaAtMTU: delta,
		})
	}
	return out
}
