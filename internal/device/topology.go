package device

import (
	"fmt"
	"time"

	"pask/internal/sim"
)

// Link models one interconnect path between two GPUs: the bandwidth and
// fixed latency a peer-to-peer code-object transfer pays.
type Link struct {
	BW      float64       // bytes/s over the path
	Latency time.Duration // fixed setup cost per transfer
}

// Time returns the transfer time for n bytes over the link.
func (l Link) Time(n int64) time.Duration {
	if l.BW <= 0 {
		return l.Latency
	}
	return l.Latency + time.Duration(float64(n)/l.BW*float64(time.Second))
}

// crossNodeBWFactor discounts PCIe bandwidth when a transfer crosses the
// inter-socket link (the QPI/xGMI hop of a dual-socket EPYC host).
const crossNodeBWFactor = 0.6

// Fixed per-transfer setup latencies: DMA engine programming plus, across
// sockets, the extra hop through the IO die.
const (
	sameNodeLinkLatency  = 5 * time.Microsecond
	crossNodeLinkLatency = 15 * time.Microsecond
)

// HostGPU is one slot of a multi-GPU host: the device plus its NUMA
// placement.
type HostGPU struct {
	GPU  *GPU
	Node int // NUMA node the GPU's PCIe root complex hangs off
}

// Host models a multi-GPU server: N GPUs spread over NUMA nodes with a
// PCIe/NUMA link model between them. Peer transfers between GPUs on the same
// node ride a shared PCIe switch at the slower endpoint's bandwidth; across
// nodes they additionally cross the inter-socket link, discounting bandwidth
// and adding latency. The link model prices cross-GPU cache peering: fetching
// a neighbor's resident module instead of re-reading the store.
type Host struct {
	env  *sim.Env
	gpus []HostGPU
}

// NewHost creates an empty multi-GPU host.
func NewHost(env *sim.Env) *Host { return &Host{env: env} }

// AddGPU creates a GPU from prof on the given NUMA node and returns its
// index.
func (h *Host) AddGPU(prof Profile, node int) int {
	h.gpus = append(h.gpus, HostGPU{GPU: NewGPU(h.env, prof), Node: node})
	return len(h.gpus) - 1
}

// NumGPUs returns the number of GPUs installed.
func (h *Host) NumGPUs() int { return len(h.gpus) }

// GPU returns the device at index i.
func (h *Host) GPU(i int) *GPU { return h.gpus[i].GPU }

// Node returns the NUMA node of the GPU at index i.
func (h *Host) Node(i int) int { return h.gpus[i].Node }

// LinkBetween returns the interconnect path between GPUs i and j. Same-node
// peers share a PCIe switch and run at the slower endpoint's PCIe bandwidth;
// cross-node peers pay the inter-socket discount and latency. i == j is an
// error in the caller's logic.
func (h *Host) LinkBetween(i, j int) Link {
	if i == j {
		panic(fmt.Sprintf("device: LinkBetween(%d, %d): self link", i, j))
	}
	bw := h.gpus[i].GPU.Profile.PCIeBW
	if b := h.gpus[j].GPU.Profile.PCIeBW; b < bw {
		bw = b
	}
	if h.gpus[i].Node == h.gpus[j].Node {
		return Link{BW: bw, Latency: sameNodeLinkLatency}
	}
	return Link{BW: bw * crossNodeBWFactor, Latency: crossNodeLinkLatency}
}

// PeerCopyTime returns the time to move n bytes from GPU i to GPU j over
// the host's link model.
func (h *Host) PeerCopyTime(i, j int, n int64) time.Duration {
	return h.LinkBetween(i, j).Time(n)
}

// CloseAll closes every stream of every GPU; used by experiments that need
// clean environment termination.
func (h *Host) CloseAll() {
	for _, g := range h.gpus {
		g.GPU.CloseAll()
	}
}
