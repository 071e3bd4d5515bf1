package experiments

import (
	"fmt"
	"time"

	"dumbnet/internal/host"
	"dumbnet/internal/metrics"
	"dumbnet/internal/packet"
)

// Figure 9 — single-host throughput: no-op DPDK 5.41 Gbps, MPLS-only 5.19
// Gbps, DumbNet 5.19 Gbps. The paper's numbers are software-bound: the
// DPDK/KNI path costs ~2.17 µs per 1450-byte frame (half of the 10 GbE line
// rate), adding an MPLS header copy costs ~4%, and DumbNet's source routing
// adds nothing measurable on top because the PathTable serves cached,
// flow-bound routes.
//
// The experiment combines that calibrated host-cost model with *measured*
// per-packet costs of this repo's actual encapsulation code, showing that
// the DumbNet increment over raw header handling is indeed negligible.

// Fig9Model holds the calibrated per-packet costs.
type Fig9Model struct {
	FrameBytes     int           // MTU-sized frame (paper sets MTU 1450)
	BaseCost       time.Duration // no-op DPDK per-packet software cost
	MPLSOverhead   float64       // fractional cost of the header copy
	DumbNetExtraNs float64       // additional per-packet cost of tag routing
}

// DefaultFig9Model reproduces the paper's operating point.
func DefaultFig9Model() Fig9Model {
	return Fig9Model{
		FrameBytes:   1464, // 1450 MTU + Ethernet header
		BaseCost:     2165 * time.Nanosecond,
		MPLSOverhead: 0.042,
		// Flow-bound PathTable hits amortize the 0.37 µs lookup across a
		// flow; the per-packet residue is the header write.
		DumbNetExtraNs: 8,
	}
}

// throughputGbps converts a per-packet cost to goodput.
func (m Fig9Model) throughputGbps(perPacket time.Duration) float64 {
	bits := float64(m.FrameBytes) * 8
	return bits / perPacket.Seconds() / 1e9
}

// Fig9Measured times this repo's real datapath code.
type Fig9Measured struct {
	EncodePlainNs  float64 // build frame without tags
	EncodeTaggedNs float64 // build frame with a 4-hop tag stack
	EncodeMPLSNs   float64 // build frame with MPLS labels
	LookupAndTagNs float64 // PathTable lookup + tagged encode
}

// fig9Trials is how many interleaved rounds measureDatapath times; each
// cost is the fastest round's, so a scheduling hiccup or GC pause in one
// loop cannot skew the ratios the checks compare.
const fig9Trials = 5

// measureDatapath runs the real microbenchmarks: fig9Trials interleaved
// rounds of reps encodes per variant, keeping each variant's fastest round.
func measureDatapath(frameBytes, reps int) (Fig9Measured, error) {
	payload := make([]byte, frameBytes-packet.EthernetHeaderLen-7)
	dst := packet.MACFromUint64(1)
	src := packet.MACFromUint64(2)
	buf := make([]byte, frameBytes+64)
	plain := &packet.Frame{Dst: dst, Src: src, InnerType: packet.EtherTypeIPv4, Payload: payload}
	tagged := &packet.Frame{Dst: dst, Src: src, Tags: packet.Path{2, 3, 5, 1}, InnerType: packet.EtherTypeIPv4, Payload: payload}
	pt := host.NewPathTable(4)
	pt.Install(dst, &host.TableEntry{Paths: []host.CachedPath{{Tags: packet.Path{2, 3, 5, 1}}}})
	loops := []struct {
		out *float64
		op  func() error
	}{
		{nil, func() error { _, err := plain.EncodeTo(buf); return err }},
		{nil, func() error { _, err := tagged.EncodeTo(buf); return err }},
		{nil, func() error { _, err := tagged.EncodeMPLS(); return err }},
		{nil, func() error {
			tagged.Tags = pt.Lookup(dst).Paths[0].Tags
			_, err := tagged.EncodeTo(buf)
			return err
		}},
	}
	var out Fig9Measured
	loops[0].out, loops[1].out, loops[2].out, loops[3].out =
		&out.EncodePlainNs, &out.EncodeTaggedNs, &out.EncodeMPLSNs, &out.LookupAndTagNs
	for trial := 0; trial < fig9Trials; trial++ {
		for _, l := range loops {
			start := time.Now()
			for i := 0; i < reps; i++ {
				if err := l.op(); err != nil {
					return out, err
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(reps)
			if trial == 0 || ns < *l.out {
				*l.out = ns
			}
		}
	}
	return out, nil
}

// Fig9 produces the throughput comparison.
func Fig9(reps int) (*Result, error) {
	if reps <= 0 {
		reps = 20000
	}
	m := DefaultFig9Model()
	meas, err := measureDatapath(m.FrameBytes, reps)
	if err != nil {
		return nil, err
	}
	noop := m.throughputGbps(m.BaseCost)
	mpls := m.throughputGbps(time.Duration(float64(m.BaseCost) * (1 + m.MPLSOverhead)))
	dumb := m.throughputGbps(time.Duration(float64(m.BaseCost)*(1+m.MPLSOverhead) + m.DumbNetExtraNs))

	tbl := metrics.NewTable("Figure 9: single-host throughput (Gbps)",
		"configuration", "paper", "modelled")
	tbl.AddRow("No-op DPDK", 5.41, noop)
	tbl.AddRow("MPLS only", 5.19, mpls)
	tbl.AddRow("DumbNet", 5.19, dumb)

	res := &Result{
		Name:  "Figure 9 — single-host throughput",
		Table: tbl,
		Notes: []string{
			fmt.Sprintf("measured datapath (this repo, %d reps): plain encode %.0f ns, tagged encode %.0f ns, MPLS encode %.0f ns, lookup+tag %.0f ns",
				reps, meas.EncodePlainNs, meas.EncodeTaggedNs, meas.EncodeMPLSNs, meas.LookupAndTagNs),
			"model: 1464 B frames, 2.165 µs/pkt software base cost (calibrated to the paper's 5.41 Gbps), +4.2% MPLS header copy",
		},
	}
	res.Checks = append(res.Checks,
		Check{
			Claim: "MPLS header adds ~4% loss; DumbNet adds nothing measurable on top",
			Pass:  mpls < noop && (mpls-dumb)/mpls < 0.01,
			Got:   fmt.Sprintf("noop %.2f, mpls %.2f, dumbnet %.2f Gbps", noop, mpls, dumb),
		},
		// Both bounds are ratios to the plain encode timed in the same
		// process, so a slow machine or the race detector scales every
		// side alike; only tagging itself getting dearer fails them.
		Check{
			Claim: "measured: source-route tagging costs about a plain header write (tagged encode < 2x plain)",
			Pass:  meas.LookupAndTagNs < meas.EncodePlainNs*1.5+200 && meas.EncodeTaggedNs < meas.EncodePlainNs*2,
			Got: fmt.Sprintf("plain %.0f ns vs tagged %.0f ns, lookup+tag %.0f ns",
				meas.EncodePlainNs, meas.EncodeTaggedNs, meas.LookupAndTagNs),
		},
	)
	return res, nil
}
