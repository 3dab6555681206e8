package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
)

// newOpsMux builds the daemon's HTTP ops surface:
//
//	GET  /metrics — Prometheus text exposition
//	GET  /healthz — 200 while serving, 503 otherwise (body: health state)
//	POST /inject?seq=N — inject an application update (push gossip)
//	POST /drain — graceful drain, then process shutdown via the stop hook
//
// stop may be nil (drain without process exit; tests use this).
func newOpsMux(d *live.Daemon, stop func()) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, d)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := d.Health()
		if h != live.HealthServing {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, h)
	})
	mux.HandleFunc("POST /inject", func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseInt(r.URL.Query().Get("seq"), 10, 64)
		if err != nil {
			http.Error(w, "inject needs ?seq=N", http.StatusBadRequest)
			return
		}
		var ok bool
		d.WithHost(func(h *runtime.Host) {
			if inj, can := h.App(0).(interface{ Inject(seq int64) }); can {
				inj.Inject(seq)
				ok = true
			}
		})
		if !ok {
			http.Error(w, "application does not accept injections", http.StatusConflict)
			return
		}
		fmt.Fprintln(w, "injected", seq)
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		// Answer first: Drain stops the node and (with a stop hook) the
		// process, so a synchronous handler would race its own response away.
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, "draining")
		go func() {
			// Not r.Context(): net/http cancels it the moment the handler
			// returns, which would void the drain's queue-flush wait.
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			d.Drain(ctx)
			if stop != nil {
				stop()
			}
		}()
	})
	return mux
}

// writeMetrics renders the daemon's ops snapshot in the Prometheus text
// exposition format: protocol counters, the §3.4 audit, transport counters,
// queue gauges and tick-latency quantiles.
func writeMetrics(w io.Writer, d *live.Daemon) {
	var (
		st         protocol.Stats
		tokens     int
		bytesSent  int64
		violations int
		seq        float64 = -1
	)
	d.WithHost(func(h *runtime.Host) {
		st = h.Node(0).Stats()
		tokens = h.Node(0).Tokens()
		bytesSent = h.BytesSent()
		violations = len(h.AuditViolations())
		if s, ok := h.App(0).(interface{ Seq() int64 }); ok {
			seq = float64(s.Seq())
		}
	})

	gauge(w, "tokennode_tokens", "Current token account balance.", float64(tokens))
	counter(w, "tokennode_rounds_total", "Proactive rounds executed.", float64(st.Rounds))
	fmt.Fprintf(w, "# HELP tokennode_sends_total Messages sent, by kind.\n# TYPE tokennode_sends_total counter\n")
	fmt.Fprintf(w, "tokennode_sends_total{kind=\"proactive\"} %d\n", st.ProactiveSent)
	fmt.Fprintf(w, "tokennode_sends_total{kind=\"reactive\"} %d\n", st.ReactiveSent)
	counter(w, "tokennode_bytes_sent_total", "Modeled payload bytes handed to the transport (protocol.PayloadSize per message).", float64(bytesSent))
	gauge(w, "tokennode_audit_violations", "1 if the node ever sent more than ceil(t/delta) + max(C, initial tokens) messages in a window of length t, else 0.", float64(violations))
	counter(w, "tokennode_received_total", "Messages received.", float64(st.Received))
	counter(w, "tokennode_useful_received_total", "Received messages the application classified as useful.", float64(st.UsefulReceived))
	counter(w, "tokennode_tokens_banked_total", "Rounds whose token was banked instead of spent.", float64(st.TokensBanked))
	counter(w, "tokennode_dropped_incoming_total", "Incoming messages lost to a full queue or an offline node.", float64(d.DroppedIncoming()))
	gauge(w, "tokennode_queue_depth", "Incoming messages waiting for the run loop.", float64(d.QueueDepth()))
	gauge(w, "tokennode_peers", "Peers in the membership table.", float64(d.NumPeers()))
	if seq >= 0 {
		gauge(w, "tokennode_app_seq", "Latest application update sequence number.", seq)
	}

	fmt.Fprintf(w, "# HELP tokennode_health Daemon lifecycle state (1 for the current state).\n# TYPE tokennode_health gauge\n")
	current := d.Health()
	for _, h := range []live.Health{live.HealthStarting, live.HealthServing, live.HealthDraining, live.HealthStopped} {
		v := 0
		if h == current {
			v = 1
		}
		fmt.Fprintf(w, "tokennode_health{state=%q} %d\n", h.String(), v)
	}

	fmt.Fprintf(w, "# HELP tokennode_tick_latency_seconds Proactive tick duration quantiles.\n# TYPE tokennode_tick_latency_seconds summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v := d.TickLatencyQuantile(q)
		if math.IsNaN(v) {
			v = 0
		}
		fmt.Fprintf(w, "tokennode_tick_latency_seconds{quantile=\"%g\"} %g\n", q, v)
	}
	fmt.Fprintf(w, "tokennode_tick_latency_seconds_count %d\n", d.TickCount())

	ts := d.Endpoint().Stats()
	counter(w, "tokennode_transport_dials_total", "Successful outgoing dials.", float64(ts.Dials))
	counter(w, "tokennode_transport_dial_failures_total", "Failed dial attempts.", float64(ts.DialFailures))
	counter(w, "tokennode_transport_reconnects_total", "Dials replacing a previous connection.", float64(ts.Reconnects))
	counter(w, "tokennode_transport_frames_sent_total", "Frames written to sockets.", float64(ts.FramesSent))
	counter(w, "tokennode_transport_frames_received_total", "Frames read from sockets.", float64(ts.FramesReceived))
	counter(w, "tokennode_transport_writes_total", "Completed socket writes; frames_sent_total over this is the batching factor.", float64(ts.Writes))
	counter(w, "tokennode_transport_bytes_sent_total", "Wire bytes written, including frame headers.", float64(ts.BytesSent))
	counter(w, "tokennode_transport_bytes_received_total", "Wire bytes read, including frame headers.", float64(ts.BytesReceived))
	counter(w, "tokennode_transport_sends_shed_total", "Sends shed because a peer's outbound queue was full.", float64(ts.SendsShed))
	counter(w, "tokennode_transport_send_errors_total", "Sends lost to connection failures or backoff.", float64(ts.SendErrors))
	counter(w, "tokennode_transport_decode_errors_total", "Incoming frames that failed to decode.", float64(ts.DecodeErrors))
	counter(w, "tokennode_transport_disconnects_total", "Connection teardowns observed outside Close.", float64(ts.Disconnects))
	gauge(w, "tokennode_transport_queue_depth", "Frames waiting in per-peer outbound queues.", float64(ts.QueueDepth))
	gauge(w, "tokennode_transport_peers_connected", "Peers with an established outgoing connection.", float64(ts.PeersConnected))
}

func counter(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
}

func gauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}
