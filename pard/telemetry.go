package pard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The telemetry stores' bounds: samples retained per series and audit
// events retained by the journal.
const (
	seriesCapacity  = 512
	journalCapacity = 1024
)

// attachTelemetry boots the telemetry plane: the audit journal, the
// time-series registry scraping every mounted control plane's
// statistics table, parameter-write observers on every plane, and the
// firmware counter gauges. Called after the control planes are mounted
// and before the flight recorder attaches (the recorder adds its
// latency-percentile gauges onto the plane sources created here).
//
// Everything registered here only ever reads simulation state;
// StateDigest is byte-identical with telemetry enabled or disabled.
func (s *System) attachTelemetry() {
	s.Journal = telemetry.NewJournal(s.Engine, journalCapacity)
	s.Telemetry = telemetry.NewRegistry(s.Engine, s.Cfg.Telemetry.Interval, seriesCapacity)
	s.Firmware.SetJournal(s.Journal)

	for i := 0; ; i++ {
		cpa, err := s.Firmware.CPA(i)
		if err != nil {
			break
		}
		name := fmt.Sprintf("cpa%d", i)
		s.Telemetry.AddPlane(name, cpa.Plane)
		plane := cpa.Plane
		plane.SetParamObserver(func(ds core.DSID, pname string, old, new uint64) {
			s.Journal.Record(telemetry.Event{
				Kind:   telemetry.KindParamWrite,
				Origin: s.Firmware.Origin(),
				Plane:  name,
				DS:     ds,
				Name:   pname,
				Old:    old,
				New:    new,
			})
		})
	}

	s.Telemetry.AddGauge("prm.triggers_handled", func() float64 {
		return float64(s.Firmware.TriggersHandled)
	})
	s.Telemetry.AddGauge("prm.triggers_suppressed", func() float64 {
		return float64(s.Firmware.TriggersSuppressed)
	})
	s.Telemetry.AddGauge("prm.action_errors", func() float64 {
		return float64(s.Firmware.ActionErrors)
	})

	s.Telemetry.Start()
}
