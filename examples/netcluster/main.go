// Netcluster: run the wire protocol over real TCP inside one process — a
// summary server fed by a weather stream, plus several concurrent
// clients issuing point and inner-product queries, exactly as separate
// swatd / swatquery processes would.
//
//	go run ./examples/netcluster
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
	"github.com/streamsum/swat/internal/wire"
)

func main() {
	// Start the summary server on an ephemeral port.
	srv, err := wire.NewServer(core.Options{WindowSize: 512})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	fmt.Printf("server listening on %s\n", addr)

	// A feeder connection streams two days of weather data in one
	// one-way batch, then polls stats until the server has applied it.
	feeder, err := wire.DialBinary(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	src := stream.Weather(5)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = src.Next()
	}
	if err := feeder.FeedBatch(vals); err != nil {
		log.Fatal(err)
	}
	var st wire.StatsV2
	for st.Arrivals < int64(len(vals)) {
		if st, err = feeder.Stats(); err != nil {
			log.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := feeder.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fed %d values over TCP\n", st.Arrivals)

	// Concurrent query clients, each asking a point and an inner-product
	// query in one batched round trip.
	const clients = 4
	var wg sync.WaitGroup
	results := make(chan string, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := wire.DialBinary(addr.String())
			if err != nil {
				results <- fmt.Sprintf("client %d: %v", id, err)
				return
			}
			defer c.Close()
			ip, err := query.New(query.Exponential, id*8, 8, 0)
			if err != nil {
				results <- fmt.Sprintf("client %d: %v", id, err)
				return
			}
			point := query.Query{Ages: []int{id}, Weights: []float64{1}}
			ans := make([]float64, 2)
			if err := c.QueryBatch([]query.Query{point, ip}, ans); err != nil {
				results <- fmt.Sprintf("client %d: %v", id, err)
				return
			}
			results <- fmt.Sprintf("client %d: point(age=%d)=%.2f°C, exp-weighted index over ages %d..%d = %.2f",
				id, id, ans[0], id*8, id*8+7, ans[1])
		}(id)
	}
	wg.Wait()
	close(results)
	for line := range results {
		fmt.Println(line)
	}

	// One more client checks server state, then answers a range query
	// locally from the server's fetched summary.
	c, err := wire.DialBinary(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	if st, err = c.Stats(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server tree: window=%d nodes=%d arrivals=%d ready=%v\n",
		st.Window, st.Nodes, st.Arrivals, st.Ready)
	sum, err := c.FetchSummary()
	if err != nil {
		log.Fatal(err)
	}
	tree, err := core.FromSummary(sum)
	if err != nil {
		log.Fatal(err)
	}
	matches, err := tree.RangeQuery(30, 10, 0, 255)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range 30±10°C over last 256 days: %d matching days\n", len(matches))
	if err := c.Close(); err != nil {
		log.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	fmt.Println("server shut down cleanly")
}
