package simnet

import (
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
)

// hookAdapter bridges one runtime.Hook to the engine's hook events: the
// adapter is the sink of sim.Engine.ScheduleHookAt, so each hook gets its own
// lane in every engine it is scheduled on, its events take the same
// (time, seq) position as At would give them, and no closure is built.
type hookAdapter struct {
	hook runtime.Hook
}

var _ sim.DeliverySink = (*hookAdapter)(nil)

func (a *hookAdapter) Deliver(d sim.Delivery) { a.hook.RunHook(d.To, d.Word) }

// hookRegistry caches one adapter per registered hook so rescheduling a hook
// from its own callback allocates nothing. Registration (the first AtHook
// call for a hook) must happen during assembly or from coordinator context;
// lookups of already-registered hooks are read-only and therefore safe from
// shard workers mid-window, when coordinator events cannot run.
type hookRegistry struct {
	adapters []registeredHook
}

type registeredHook struct {
	hook runtime.Hook
	sink sim.DeliverySink
}

func (r *hookRegistry) adapterFor(h runtime.Hook) sim.DeliverySink {
	for _, a := range r.adapters {
		if a.hook == h {
			return a.sink
		}
	}
	sink := &hookAdapter{hook: h}
	r.adapters = append(r.adapters, registeredHook{hook: h, sink: sink})
	return sink
}
