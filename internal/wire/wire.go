// Package wire provides a small TCP protocol for serving a SWAT summary
// over a real network: a server owns a SWAT tree fed by data frames and
// answers point, range, and inner-product queries and standing-query
// subscriptions from any number of concurrent clients. Every connection
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
