package experiments

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// A9 measures shared-Ethernet saturation: N diskless workstations load
// 64 KB programs concurrently, each from its own file server, so only
// the 3 Mbit wire couples them. §3.1's single-load figure (338 ms,
// within 13% of the maximum packet write rate) already implies the
// medium is the ceiling; this experiment shows per-load latency growing
// with N while aggregate goodput plateaus.
//
// Approximation note: netsim's wire ledger serializes whole transfers in
// request order rather than interleaving packets, so contention is
// modelled conservatively — the plateau lands at the single-stream
// pipeline rate (~1.5 Mbit/s goodput) rather than the ~2.7 Mbit/s a
// packet-interleaved medium would reach. The qualitative result
// (saturation; ~linear per-load slowdown) is the point.
func A9() (Result, error) {
	const imageBytes = 64 * 1024

	run := func(n int) (worst time.Duration, aggregateMbit, utilization float64, err error) {
		model := vtime.DefaultModel()
		net := netsim.New(model, 1)
		k := kernel.New(net)

		loaders := make([]*rig.WorkloadClient, 0, n)
		var loadErr error // written only by the sequential driver's goroutine
		for i := 0; i < n; i++ {
			fsHost := k.NewHost(fmt.Sprintf("fs%d", i))
			fs, err := fileserver.Start(fsHost, fmt.Sprintf("fs%d", i))
			if err != nil {
				return 0, 0, 0, err
			}
			if err := fs.WriteFile("/bin/editor", "system", make([]byte, imageBytes)); err != nil {
				return 0, 0, 0, err
			}
			wsHost := k.NewHost(fmt.Sprintf("ws%d", i))
			ps, err := prefix.Start(wsHost, fmt.Sprintf("user%d", i))
			if err != nil {
				return 0, 0, 0, err
			}
			binCtx, err := fs.MkdirAll("/bin", "system")
			if err != nil {
				return 0, 0, 0, err
			}
			if err := ps.Define("bin", pairOf(fs.PID(), binCtx)); err != nil {
				return 0, 0, 0, err
			}
			proc, err := wsHost.NewProcess("loader")
			if err != nil {
				return 0, 0, 0, err
			}
			loaders = append(loaders, &rig.WorkloadClient{
				Session:  client.New(proc, ps.PID(), pairOf(fs.PID(), 0), ""),
				Requests: 1,
				Op: func(s *client.Session, _ int) error {
					_, err := s.LoadProgram("[bin]editor", make([]byte, imageBytes))
					if err != nil {
						loadErr = err
					}
					return err
				},
			})
		}

		// The sequential driver issues the loads in virtual-time order,
		// so wire reservations (and every row) repeat exactly.
		res := rig.RunWorkload(loaders)
		if loadErr != nil {
			return 0, 0, 0, loadErr
		}
		for _, st := range res.Clients {
			if st.TotalLatency > worst {
				worst = st.TotalLatency
			}
		}
		totalBits := float64(n) * imageBytes * 8
		aggregateMbit = totalBits / (float64(worst) / float64(time.Second)) / 1e6
		utilization = float64(net.Stats().WireBusyFor) / float64(worst)
		return worst, aggregateMbit, utilization, nil
	}

	var rows []Row
	for _, n := range []int{1, 2, 4, 8} {
		worst, mbit, util, err := run(n)
		if err != nil {
			return Result{}, err
		}
		paper := "-"
		if n == 1 {
			paper = "338 ms"
		}
		rows = append(rows, Row{
			Label:    fmt.Sprintf("%d concurrent 64 KB loads", n),
			Paper:    paper,
			Measured: ms(worst),
			Note:     fmt.Sprintf("aggregate goodput %.2f Mbit/s, wire %.0f%% busy", mbit, util*100),
		})
	}
	return Result{
		ID:     "a9",
		Title:  "shared-Ethernet saturation under concurrent program loads",
		Source: "§3.1 (the wire-rate ceiling behind the 338 ms / 13% figures)",
		Rows:   rows,
	}, nil
}

// pairOf builds a context pair from raw parts.
func pairOf(server kernel.PID, ctx core.ContextID) core.ContextPair {
	return core.ContextPair{Server: server, Ctx: ctx}
}
