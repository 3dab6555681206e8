package live

import "time"

// clock paces an Env's run loop against run time: Start fixes the origin
// (the first call counts), Now reads the run time since then (0 before), and
// Wait returns a channel that fires once run time t has come. Only the run
// loop calls Start and Wait.
type clock interface {
	Start()
	Now() float64
	Wait(t float64) <-chan time.Time
}

// maxWallSeconds bounds every wall-clock span the environment schedules to
// one year. Spans beyond it used to be silently clamped — a Run horizon that
// outran the cap returned early with no error; they are now rejected up
// front (NewEnv for the latency, Run for the horizon).
const maxWallSeconds = 365 * 24 * 3600.0

// wallClock is the clock of every Env: one run-second lasts scale seconds of
// wall time. Every Wait re-arms its one timer; a Reset timer never delivers
// a value from before the Reset (Go 1.23 timers), so nothing drains it.
type wallClock struct {
	scale float64
	start time.Time // zero until Start
	timer *time.Timer
}

func newWallClock(scale float64) *wallClock {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &wallClock{scale: scale, timer: t}
}

func (c *wallClock) Start() {
	if c.start.IsZero() {
		c.start = time.Now()
	}
}

func (c *wallClock) Now() float64 {
	if c.start.IsZero() {
		return 0
	}
	return time.Since(c.start).Seconds() / c.scale
}

// Wait arms the timer for the wall instant of run time t. Horizons and the
// latency are validated against maxWallSeconds; what a horizon-less run
// (Run(+Inf)) waits for is bounded only by its uptime, so the cap of a
// century here only keeps time.Duration (≈ 292 years) from overflowing.
func (c *wallClock) Wait(t float64) <-chan time.Time {
	wall := min(t*c.scale, 100*maxWallSeconds)
	c.timer.Reset(time.Until(c.start.Add(time.Duration(wall * float64(time.Second)))))
	return c.timer.C
}
