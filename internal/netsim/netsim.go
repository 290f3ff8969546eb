// Package netsim simulates the shared local-area network connecting the
// hosts of a V domain — the 3 Mbit Ethernet of the paper's testbed.
//
// The network computes virtual-time hop latencies from the calibrated cost
// model, tracks per-host traffic statistics, and supports the fault
// injection the experiments need: packet loss (which the V kernel masks by
// retransmission, at a latency cost) and network partitions (which make
// hosts mutually unreachable).
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

// HostID identifies a host (a network station) in the simulated domain.
type HostID uint16

// ErrUnreachable is returned when two hosts are in different partitions or
// when retransmission gives up.
var ErrUnreachable = errors.New("netsim: host unreachable")

// maxRetransmits bounds kernel retransmission attempts before a send is
// reported as failed, mirroring the V kernel's bounded retry.
const maxRetransmits = 5

// HopDetail carries the cost breakdown of one delivered hop: how long
// the frame queued for the shared medium, how many packets it was
// fragmented into, and how many retransmissions masked injected loss.
type HopDetail struct {
	Queue       time.Duration
	Packets     int
	Retransmits int
}

// FrameEvent describes one frame (or fragmented packet burst) placed on
// the medium, for observers such as the tracing layer.
type FrameEvent struct {
	Src, Dst    HostID // Dst is 0 for broadcast and multicast
	Cast        string // "unicast", "broadcast" or "multicast"
	Bytes       int
	Packets     int
	Retransmits int
	At          vtime.Time
	Queue       time.Duration
	Latency     time.Duration
}

// FrameRecorder observes every frame the network carries. Implementations
// must not call back into the Network (they run with its lock held).
type FrameRecorder interface {
	RecordFrame(FrameEvent)
}

// Stats records cumulative traffic counters for the whole network.
type Stats struct {
	Packets     uint64 // frames successfully delivered
	Bytes       uint64 // payload bytes successfully delivered
	Broadcasts  uint64 // broadcast frames
	Multicasts  uint64 // multicast frames
	Drops       uint64 // frames lost and retransmitted
	WireBusyFor time.Duration
}

// statsCounters is the lock-free backing store for Stats: the wire path
// bumps counters with atomic adds so readers never serialize senders.
type statsCounters struct {
	packets    atomic.Uint64
	bytes      atomic.Uint64
	broadcasts atomic.Uint64
	multicasts atomic.Uint64
	drops      atomic.Uint64
	wireBusy   atomic.Int64 // nanoseconds of wire occupancy
}

func (c *statsCounters) load() Stats {
	return Stats{
		Packets:     c.packets.Load(),
		Bytes:       c.bytes.Load(),
		Broadcasts:  c.broadcasts.Load(),
		Multicasts:  c.multicasts.Load(),
		Drops:       c.drops.Load(),
		WireBusyFor: time.Duration(c.wireBusy.Load()),
	}
}

// netMetrics is the pre-resolved instrument set the wire path records
// into when a metrics registry is installed.
type netMetrics struct {
	frames     *metrics.Counter
	bytes      *metrics.Counter
	broadcasts *metrics.Counter
	multicasts *metrics.Counter
	drops      *metrics.Counter
	queueWait  *metrics.Histogram
}

// Network is the simulated shared Ethernet. The zero value is not usable;
// construct with New.
type Network struct {
	model *vtime.CostModel

	// Counters, the loss probability and the partition map are read on
	// every hop; they are atomics / copy-on-write so the common read
	// never takes the wire mutex.
	stats    statsCounters
	metrics  atomic.Pointer[netMetrics]
	dropBits atomic.Uint64                  // math.Float64bits of the drop rate
	parts    atomic.Pointer[map[HostID]int] // host -> partition group; absent means group 0

	mu       sync.Mutex
	rng      *rand.Rand
	recorder FrameRecorder
	// wireFreeAt serializes the shared medium: a frame transmitted at
	// virtual time t occupies the wire from max(t, wireFreeAt) for its
	// wire time, so concurrent senders contend (CSMA-style, without
	// modelling collisions).
	wireFreeAt vtime.Time
}

// New returns a network using the given cost model and a deterministic RNG
// seed for loss injection.
func New(model *vtime.CostModel, seed int64) *Network {
	n := &Network{
		model: model,
		rng:   rand.New(rand.NewSource(seed)),
	}
	parts := make(map[HostID]int)
	n.parts.Store(&parts)
	return n
}

// Model returns the cost model the network charges against.
func (n *Network) Model() *vtime.CostModel { return n.model }

// Lookahead is the network's conservative-PDES lookahead bound: the
// minimum virtual delay of any cross-host message (PROTOCOL.md §12).
// Per-host engines use it to justify running host-confined work ahead of
// their peers — a peer quiet until time T cannot be heard from before
// T + Lookahead.
func (n *Network) Lookahead() time.Duration {
	return n.model.MinRemoteDelay()
}

// SetDropRate sets the probability that any individual frame is lost.
// Lost frames are masked by kernel retransmission at a latency cost.
func (n *Network) SetDropRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n.dropBits.Store(math.Float64bits(p))
}

// DropRate returns the current frame-loss probability.
func (n *Network) DropRate() float64 {
	return math.Float64frombits(n.dropBits.Load())
}

// Partition places host h into partition group g. Hosts in different
// groups cannot exchange frames. All hosts start in group 0.
//
// Concurrency: the partition map is copy-on-write — writers copy under
// n.mu and publish atomically, readers (Reachable, on every hop) load
// the snapshot lock-free — so a partition event may fire while other
// engines' sends are in flight without a data race. Under the sharded
// driver the chaos engine additionally fires Partition only at a global
// fence (every lane quiescent), so *which* sends observe the new map is
// deterministic, not merely race-free.
func (n *Network) Partition(h HostID, g int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := *n.parts.Load()
	parts := make(map[HostID]int, len(old)+1)
	for k, v := range old {
		parts[k] = v
	}
	parts[h] = g
	n.parts.Store(&parts)
}

// Heal returns every host to partition group 0.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	parts := make(map[HostID]int)
	n.parts.Store(&parts)
}

// Reachable reports whether frames can currently flow between a and b.
func (n *Network) Reachable(a, b HostID) bool {
	parts := *n.parts.Load()
	return parts[a] == parts[b]
}

// SetRecorder installs an observer for every frame the network carries.
// A nil recorder disables recording.
func (n *Network) SetRecorder(r FrameRecorder) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.recorder = r
}

// recordLocked reports a frame to the installed recorder, if any.
// Must be called with n.mu held.
func (n *Network) recordLocked(ev FrameEvent) {
	if n.recorder != nil {
		n.recorder.RecordFrame(ev)
	}
}

// Stats returns a stabilized snapshot of the cumulative traffic
// counters (see metrics.StableRead).
func (n *Network) Stats() Stats {
	return metrics.StableRead(n.stats.load)
}

// SetMetrics installs (or, with nil, removes) a metrics registry the
// wire path mirrors its counters into, adding a wire-queueing-delay
// histogram. Zero virtual cost, same contract as the frame recorder.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		n.metrics.Store(nil)
		return
	}
	n.metrics.Store(&netMetrics{
		frames:     reg.Counter("wire_frames_total", metrics.Labels{}),
		bytes:      reg.Counter("wire_bytes_total", metrics.Labels{}),
		broadcasts: reg.Counter("wire_broadcasts_total", metrics.Labels{}),
		multicasts: reg.Counter("wire_multicasts_total", metrics.Labels{}),
		drops:      reg.Counter("wire_drops_total", metrics.Labels{}),
		queueWait:  reg.Histogram("wire_queue_wait", metrics.Labels{}),
	})
}

// reserveWireLocked acquires the shared medium for a transfer of `bytes`
// issued at virtual time `at`, returning the queueing delay incurred
// (zero when the wire is idle). Must be called with n.mu held.
func (n *Network) reserveWireLocked(at vtime.Time, bytes int) time.Duration {
	occupancy := n.occupancy(bytes)
	start := at
	if n.wireFreeAt > start {
		start = n.wireFreeAt
	}
	n.wireFreeAt = start + occupancy
	n.stats.wireBusy.Add(int64(occupancy))
	return start - at
}

// occupancy is the total wire time of a transfer, split into frames.
func (n *Network) occupancy(bytes int) time.Duration {
	var d time.Duration
	for {
		chunk := bytes
		if chunk > n.model.MaxDataPerPacket {
			chunk = n.model.MaxDataPerPacket
		}
		d += n.model.WireTime(chunk)
		bytes -= chunk
		if bytes <= 0 {
			return d
		}
	}
}

// Unicast returns the virtual one-way latency of delivering a message of
// `bytes` payload bytes from host a to host b at virtual time `at`,
// including queueing for the shared wire and any retransmission delay
// from injected loss. Same-host delivery is a local hop and never touches
// the wire.
func (n *Network) Unicast(a, b HostID, bytes int, at vtime.Time) (time.Duration, error) {
	d, _, err := n.UnicastDetail(a, b, bytes, at)
	return d, err
}

// UnicastDetail is Unicast with the hop's cost breakdown exposed for
// observers. The simulation is identical (same RNG draws, same stats),
// so traced and untraced runs stay byte-identical in virtual time.
func (n *Network) UnicastDetail(a, b HostID, bytes int, at vtime.Time) (time.Duration, HopDetail, error) {
	if a == b {
		return n.model.LocalHop(bytes), HopDetail{}, nil
	}
	if !n.Reachable(a, b) {
		return 0, HopDetail{}, fmt.Errorf("%w: host %d and host %d are partitioned", ErrUnreachable, a, b)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	queue := n.reserveWireLocked(at, bytes)
	d := queue + n.model.RemoteHop(bytes)
	nm := n.metrics.Load()
	retries := 0
	dropRate := n.DropRate()
	for dropRate > 0 && n.rng.Float64() < dropRate {
		retries++
		n.stats.drops.Add(1)
		if nm != nil {
			nm.drops.Inc()
		}
		if retries > maxRetransmits {
			return 0, HopDetail{Queue: queue, Retransmits: retries - 1},
				fmt.Errorf("%w: %d retransmissions to host %d failed", ErrUnreachable, retries-1, b)
		}
		d += n.model.RetransmitTimeout + n.model.RemoteHop(bytes)
	}
	packets := packetsFor(bytes, n.model.MaxDataPerPacket)
	n.stats.packets.Add(uint64(packets))
	n.stats.bytes.Add(uint64(bytes))
	if nm != nil {
		nm.frames.Add(uint64(packets))
		nm.bytes.Add(uint64(bytes))
		nm.queueWait.Record(queue)
	}
	det := HopDetail{Queue: queue, Packets: packets, Retransmits: retries}
	n.recordLocked(FrameEvent{
		Src: a, Dst: b, Cast: "unicast",
		Bytes: bytes, Packets: packets, Retransmits: retries,
		At: at, Queue: queue, Latency: d,
	})
	return d, det, nil
}

// Broadcast returns the one-way latency of a broadcast frame from host a
// at virtual time `at`. A broadcast occupies the shared wire once, so its
// latency does not scale with the number of receivers.
func (n *Network) Broadcast(a HostID, bytes int, at vtime.Time) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.packets.Add(1)
	n.stats.broadcasts.Add(1)
	n.stats.bytes.Add(uint64(bytes))
	queue := n.reserveWireLocked(at, bytes)
	d := queue + n.model.RemoteHop(bytes)
	if nm := n.metrics.Load(); nm != nil {
		nm.frames.Inc()
		nm.broadcasts.Inc()
		nm.bytes.Add(uint64(bytes))
		nm.queueWait.Record(queue)
	}
	n.recordLocked(FrameEvent{
		Src: a, Cast: "broadcast", Bytes: bytes, Packets: 1,
		At: at, Queue: queue, Latency: d,
	})
	return d
}

// Multicast returns the one-way latency of a multicast frame from host a
// to a group at virtual time `at`. Like broadcast, one frame serves all
// receivers on the shared wire.
func (n *Network) Multicast(a HostID, bytes int, at vtime.Time) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.packets.Add(1)
	n.stats.multicasts.Add(1)
	n.stats.bytes.Add(uint64(bytes))
	queue := n.reserveWireLocked(at, bytes)
	d := queue + n.model.RemoteHop(bytes)
	if nm := n.metrics.Load(); nm != nil {
		nm.frames.Inc()
		nm.multicasts.Inc()
		nm.bytes.Add(uint64(bytes))
		nm.queueWait.Record(queue)
	}
	n.recordLocked(FrameEvent{
		Src: a, Cast: "multicast", Bytes: bytes, Packets: 1,
		At: at, Queue: queue, Latency: d,
	})
	return d
}

// InPartition reports the partition group of h.
func (n *Network) InPartition(h HostID) int {
	return (*n.parts.Load())[h]
}

// PacketsFor reports how many packets a payload of `bytes` fragments
// into given the model's per-packet data limit — the accounting the
// trace invariant checker verifies wire spans against.
func PacketsFor(bytes, perPacket int) int {
	return packetsFor(bytes, perPacket)
}

func packetsFor(bytes, perPacket int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + perPacket - 1) / perPacket
}
