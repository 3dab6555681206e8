// Package tokenaccount is a Go implementation of the token account
// algorithms of Danner and Jelasity ("Token Account Algorithms: The Best of
// the Proactive and Reactive Worlds", ICDCS 2018): an application-layer
// traffic shaping service for decentralized message passing applications that
// combines the strict rate limiting of proactive (periodic) gossip with the
// low latency of reactive (event-driven) gossip.
//
// The implementation is an importable library; the stable packages live at
// the top level of the module:
//
//   - core: the token account framework and the published strategy
//     implementations (simple, generalized, randomized, plus the proactive
//     and reactive extremes);
//   - protocol: the transport-agnostic protocol node (Algorithm 4);
//   - simnet and experiment: the discrete-event simulation substrate and the
//     reproduction of every figure of the paper's evaluation. Every
//     experiment dimension (applications, failure scenarios, strategy
//     families, runtimes, network models, workloads) is a fixed set parsed
//     by one function; a caller's own application or scenario driver runs
//     through the same pipeline when set in experiment.Config;
//   - live and transport: a real-time runtime (goroutines, tickers,
//     in-memory or TCP transports) that turns the framework into a
//     deployable service;
//   - apps/...: the three demonstrator applications (gossip learning, push
//     gossip, chaotic power iteration).
//
// Only private helpers with no stable contract remain under internal/. The
// examples/ directory compiles against the public packages exclusively.
//
// The benchmarks in bench_test.go regenerate scaled-down versions of every
// figure; the cmd/paperfigs command prints the full tables. See README.md and
// DESIGN.md for the complete map.
package tokenaccount
