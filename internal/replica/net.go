package replica

import "repro/internal/simnet"

// Net is what a Process, and internal/consensus above it, needs from the
// carrier: handler registration, send, broadcast, the crash predicate
// and a timer. *simnet.Network satisfies it for deterministic simulation,
// a live internal/transport.Node for its own process, so the same code
// runs unchanged as a real concurrent deployment. Implementations must
// deliver messages from one peer in send order (per-peer FIFO is what
// the orphan-buffer bound and the anti-entropy segment repair assume).
type Net interface {
	// AddHandler registers a delivery handler for process p. The
	// handler touches only process p's state and sends only as p, so a
	// carrier may run handlers of different processes concurrently as
	// long as each process's handlers run one at a time (a live node's
	// event loop does).
	AddHandler(p int, h simnet.Handler)
	// Send queues payload from one process to another.
	Send(from, to int, payload any)
	// Broadcast queues payload from p to every other process.
	Broadcast(from int, payload any)
	// Down reports whether process p is currently crashed: the carrier
	// drops its sends and the deliveries addressed to it.
	Down(p int) bool
	// After runs fn on the process's event loop ticks ticks from now: a
	// virtual time unit each in simulation, transport.Tick live.
	After(ticks int64, fn func())
}

// InstallAntiEntropy registers the inventory/repair (inv/req/sync)
// handlers for this process without scheduling any periodic timers —
// the entry point for live deployments, whose timers are wall-clock
// and owned by the transport layer. Idempotent.
func (p *Process) InstallAntiEntropy() { p.installAntiEntropy() }

// Advertise broadcasts this process's current leaves — one round of the
// periodic anti-entropy loop, exposed so live deployments can drive it
// from wall-clock tickers.
func (p *Process) Advertise() { p.advertise() }

// TreeLen reports the number of blocks attached to the local replica
// (genesis included) — what a live deployment's settle compares across
// nodes.
func (p *Process) TreeLen() int { return p.tree.Len() }
