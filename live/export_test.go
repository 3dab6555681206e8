package live

import "time"

// virtualClock is the clock of NewVirtualEnv: run time jumps to whatever the
// run loop waits for, so a Run takes no wall time and an in-process Env steps
// its engine event for event as simnet.Env does. Over an external transport
// its Wait races the inbox, so it is for in-process environments only.
type virtualClock struct {
	now  float64
	done chan time.Time // closed, so every Wait returns at once
}

func (c *virtualClock) Start()       {}
func (c *virtualClock) Now() float64 { return c.now }

func (c *virtualClock) Wait(t float64) <-chan time.Time {
	c.now = max(c.now, t)
	return c.done
}

// NewVirtualEnv is NewEnv on a virtual clock.
func NewVirtualEnv(cfg EnvConfig) (*Env, error) {
	e, err := NewEnv(cfg)
	if err == nil {
		c := &virtualClock{done: make(chan time.Time)}
		close(c.done)
		e.clock = c
	}
	return e, err
}
