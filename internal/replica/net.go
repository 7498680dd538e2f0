package replica

import "repro/internal/simnet"

// Net is one process's port on the carrier: what a Process, and
// internal/consensus above it, needs to talk — handler registration,
// send, broadcast, the crash predicate and a timer. The view belongs to
// exactly one process: every handler registered on it is that process's,
// every message sent through it is sent as that process (a process
// cannot send as another), and Down and After are that process's crash
// flag and timer. A simulated process talks through its simnet.Port, a
// live one through its internal/transport.Node, so the same code runs
// unchanged as a real concurrent deployment. Implementations must
// deliver messages from one peer in send order (per-peer FIFO is what
// the orphan-buffer bound and the anti-entropy segment repair assume).
type Net interface {
	// AddHandler registers a delivery handler for the port's process.
	// The handler touches only that process's state and sends only
	// through this port, so a carrier may run handlers of different
	// processes concurrently as long as each process's handlers run one
	// at a time (a live node's event loop does).
	AddHandler(h simnet.Handler)
	// Send queues payload from the port's process to process to.
	Send(to int, payload any)
	// Broadcast queues payload from the port's process to every
	// process, itself included.
	Broadcast(payload any)
	// Down reports whether the port's process is currently crashed: the
	// carrier drops its sends and the deliveries addressed to it.
	Down() bool
	// After runs fn on the process's event loop ticks ticks from now: a
	// virtual time unit each in simulation, transport.Tick live.
	After(ticks int64, fn func())
}
