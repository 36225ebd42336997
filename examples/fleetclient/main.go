// Fleet diagnosis over the wire: submit a heterogeneous-SoC fleet job
// to a memtestd server and tail its NDJSON result stream, which
// arrives in device order. The example then demonstrates one-shot
// diagnosis and cancelling a large job mid-stream via DELETE.
//
// By default it self-hosts a server in-process so it runs standalone:
//
//	go run ./examples/fleetclient
//
// Point it at a real daemon (started with `go run ./cmd/memtestd`)
// instead:
//
//	go run ./examples/fleetclient -addr http://localhost:8347
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/memtest"
	"repro/service"
	"repro/service/client"
)

func main() {
	addr := flag.String("addr", "", "memtestd base URL (empty: start an in-process server)")
	devices := flag.Int("devices", 12, "fleet size to submit")
	flag.Parse()

	base := *addr
	if base == "" {
		m, err := service.NewManager(service.Config{Jobs: 2, Queue: 8})
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, service.NewServer(m)) //nolint:errcheck // torn down with the process
		base = "http://" + ln.Addr().String()
		fmt.Printf("self-hosted memtestd at %s\n", base)
	}
	c := client.New(base, nil)
	ctx := context.Background()

	// A distributed heterogeneous fleet in the paper's spirit: buffers
	// of different sizes and widths under one shared controller.
	req := service.JobRequest{
		Plan:    memtest.HeterogeneousExample(),
		Devices: *devices,
		Scheme:  "proposed",
		DRF:     true,
		Seed:    2026,
		Repair:  &memtest.Budget{SpareWords: 1, SpareCells: 4},
	}

	st, err := c.Submit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s: plan=%s scheme=%s devices=%d\n", st.ID, st.Plan, st.Scheme, st.Devices)

	// Tail the stream: devices arrive in index order at any worker
	// count, so the same seed prints the same lines.
	seen := 0
	for dr, err := range c.Results(ctx, st.ID) {
		if err != nil {
			log.Fatal(err)
		}
		seen++
		fmt.Printf("device %3d: located %d cells, yield %d/%d\n",
			dr.Device, dr.Result.Report.TotalLocated(),
			dr.Result.Yield.Repairable, dr.Result.Yield.Memories)
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s: %s, %d/%d devices streamed\n\n", final.ID, final.State, seen, final.Devices)

	// One-shot diagnosis: a single device, synchronous, full result.
	res, err := c.Diagnose(ctx, service.JobRequest{Plan: memtest.HeterogeneousExample(), DRF: true, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-shot: scheme=%s located=%d cells across %d memories\n\n",
		res.Engine, res.Report.TotalLocated(), len(res.Memories))

	// Cancellation: submit a job far too large to finish, take the
	// first few devices, then DELETE it.
	big, err := c.Submit(ctx, service.JobRequest{
		Plan: memtest.HeterogeneousExample(), Devices: 1_000_000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	taken := 0
	for _, err := range c.Results(ctx, big.ID) {
		if err != nil {
			fmt.Printf("big job stream ended: %v\n", err)
			break
		}
		taken++
		if taken == 3 {
			if _, err := c.Cancel(ctx, big.ID); err != nil {
				log.Fatal(err)
			}
		}
	}
	cst, err := c.Job(ctx, big.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("big job %s: %s after %d of %d devices\n", cst.ID, cst.State, taken, cst.Devices)
}
