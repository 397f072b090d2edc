// Package wire provides a small TCP protocol for serving SWAT summaries
// over a real network: a server keeps one SWAT tree per stream in a
// multi.Monitor — a default stream fed by data frames plus any number of
// named streams — and answers point, range, and inner-product queries
// and standing-query subscriptions from any number of concurrent
// clients. Every connection
// speaks one binary protocol: CRC32C codec-framed batches of raw
// float64s with reused buffers and explicit backpressure (BinClient;
// negotiation and the frame table are in binary.go).
//
// This is the deployable counterpart of the simulated hierarchy in
// internal/netsim: cmd/swatd serves a stream and cmd/swatquery queries
// it; examples/netcluster wires several processes' worth of components
// together in one binary.
//
//swat:server
package wire

// MaxFrame bounds the size of a single frame body (1 MiB), protecting
// both sides from corrupt length prefixes.
const MaxFrame = 1 << 20
