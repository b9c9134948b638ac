#![warn(missing_docs)]

//! Distributed evaluation for GeST: a coordinator/worker fan-out over
//! TCP, reproducing the paper's §III.C setup of measuring individuals in
//! parallel across identical boards.
//!
//! * [`proto`] — the `GESTDST1` length-prefixed binary frame protocol
//!   (hello/config handshake, eval request/result, heartbeat, shutdown);
//! * [`Worker`] — a server that builds the run's measurement locally and
//!   measures candidates on request through a `LocalBackend`;
//! * [`Coordinator`] — a [`gest_core::EvalBackend`] that work-steals
//!   candidates across the worker fleet, retries transport failures on
//!   surviving workers, and reconnects crashed ones.
//!
//! Determinism: the coordinator moves only the raw measurement off-host;
//! cache lookups, fitness, fault policy, and result ordering stay in
//! `GestRun`. For the shipped content-pure measurements, a candidate's
//! measurement vector is a pure function of its genes and the
//! configuration — so population and checkpoint artifacts from a
//! distributed run are byte-identical to a same-seed local run, no
//! matter how candidates land on workers or how often workers crash.
//!
//! # Quickstart
//!
//! ```text
//! # on each board
//! gest worker --listen=0.0.0.0:7421
//! # on the coordinator
//! gest run config.xml --workers=board-a:7421,board-b:7421
//! ```

pub mod proto;

mod coordinator;
mod worker;

pub use coordinator::{Coordinator, CoordinatorOptions};
pub use proto::{
    negotiate_version, DistError, Frame, TransportChaos, MAGIC, MAX_FRAME, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
pub use worker::{hostname, Worker, WorkerHandle, HEARTBEAT_INTERVAL};

#[cfg(test)]
mod tests {
    use super::*;
    use gest_core::{EvalBackend, EvalRequest, GestConfig};
    use gest_telemetry::Telemetry;
    use std::sync::Arc;

    fn test_config_xml() -> String {
        let config = GestConfig::builder("cortex-a7")
            .measurement("power")
            .population_size(4)
            .individual_size(6)
            .generations(2)
            .seed(11)
            .build()
            .unwrap();
        config.to_xml().to_string()
    }

    fn some_genes(_config_xml: &str) -> Vec<gest_isa::Gene> {
        ["ADD x1, x2, x3", "MUL x4, x1, x1", "ADD x2, x4, x3"]
            .iter()
            .map(|source| gest_isa::Gene {
                def_index: 0,
                instrs: gest_isa::asm::parse_block(source).unwrap().into(),
            })
            .collect()
    }

    #[test]
    fn loopback_worker_measures_what_local_backend_measures() {
        let xml = test_config_xml();
        let worker = Worker::bind("127.0.0.1:0").unwrap();
        let addr = worker.local_addr();
        let handle = worker.spawn();

        let coordinator = Coordinator::connect(
            &[addr.to_string()],
            xml.clone(),
            Telemetry::disabled(),
            CoordinatorOptions::default(),
        )
        .unwrap();
        assert_eq!(coordinator.worker_count(), 1);
        assert_eq!(coordinator.name(), "dist");
        assert_eq!(coordinator.slots(100), 1);

        let genes = some_genes(&xml);
        let request = EvalRequest {
            generation: 0,
            candidate_id: 3,
            genes: &genes,
        };
        let (remote, detail) = coordinator.measure(0, &request).unwrap();
        assert!(detail.is_none(), "remote results carry no local detail");

        // The same candidate measured in-process must agree bit for bit.
        let config = GestConfig::from_xml_str(&xml).unwrap();
        let measurement = gest_core::Registry::default()
            .build_measurement(
                &config.measurement_name,
                config.machine.clone(),
                config.run_config,
            )
            .unwrap();
        let local_backend =
            gest_core::LocalBackend::new(Arc::clone(&measurement), config.template.clone(), 1);
        let (local, _) = local_backend.measure(0, &request).unwrap();
        assert_eq!(remote, local, "distributed must be bit-identical to local");

        // A second measurement of identical content still agrees.
        let (again, _) = coordinator.measure(0, &request).unwrap();
        assert_eq!(again, local);
        assert!(handle.requests_served() >= 2);
        drop(coordinator);
        handle.kill();
    }

    #[test]
    fn coordinator_retries_on_surviving_worker_after_crash() {
        let xml = test_config_xml();
        let worker_a = Worker::bind("127.0.0.1:0").unwrap().spawn();
        let worker_b = Worker::bind("127.0.0.1:0").unwrap().spawn();

        let coordinator = Coordinator::connect(
            &[worker_a.addr().to_string(), worker_b.addr().to_string()],
            xml.clone(),
            Telemetry::disabled(),
            CoordinatorOptions::default(),
        )
        .unwrap();

        let genes = some_genes(&xml);
        let request = EvalRequest {
            generation: 0,
            candidate_id: 1,
            genes: &genes,
        };
        let (baseline, _) = coordinator.measure(0, &request).unwrap();

        // Kill one worker; the next measurements must still all succeed
        // (dead worker's connection fails, candidate retried elsewhere)
        // and stay bit-identical.
        worker_a.kill();
        for candidate_id in 2..6 {
            let request = EvalRequest {
                generation: 0,
                candidate_id,
                genes: &genes,
            };
            let (survived, _) = coordinator.measure(0, &request).unwrap();
            assert_eq!(survived, baseline);
        }
        drop(coordinator);
        worker_b.kill();
    }

    #[test]
    fn dead_fleet_fails_the_measurement_instead_of_hanging() {
        let xml = test_config_xml();
        let worker = Worker::bind("127.0.0.1:0").unwrap().spawn();
        let coordinator = Coordinator::connect(
            &[worker.addr().to_string()],
            xml.clone(),
            Telemetry::disabled(),
            CoordinatorOptions {
                connect_timeout: std::time::Duration::from_millis(300),
                ..CoordinatorOptions::default()
            },
        )
        .unwrap();
        worker.kill();

        let genes = some_genes(&xml);
        let request = EvalRequest {
            generation: 0,
            candidate_id: 5,
            genes: &genes,
        };
        // No fallback configured: total fleet loss must surface as a
        // measurement error (for the runner's fault policy), not a hang
        // on the pool condvar.
        let err = coordinator.measure(0, &request).unwrap_err();
        assert!(
            matches!(err, gest_core::GestError::Measurement { candidate: 5, ref message }
                if message.contains("unavailable")),
            "{err}"
        );
        assert!(!coordinator.is_degraded());
    }

    #[test]
    fn total_fleet_loss_degrades_to_the_fallback_backend() {
        let xml = test_config_xml();
        let config = GestConfig::from_xml_str(&xml).unwrap();
        let measurement = gest_core::Registry::default()
            .build_measurement(
                &config.measurement_name,
                config.machine.clone(),
                config.run_config,
            )
            .unwrap();
        let local = Arc::new(gest_core::LocalBackend::new(
            measurement,
            config.template.clone(),
            1,
        ));
        let worker = Worker::bind("127.0.0.1:0").unwrap().spawn();
        let coordinator = Coordinator::connect(
            &[worker.addr().to_string()],
            xml.clone(),
            Telemetry::disabled(),
            CoordinatorOptions {
                connect_timeout: std::time::Duration::from_millis(300),
                local_fallback: Some((1, local.clone())),
                ..CoordinatorOptions::default()
            },
        )
        .unwrap();

        let genes = some_genes(&xml);
        let request = EvalRequest {
            generation: 0,
            candidate_id: 7,
            genes: &genes,
        };
        let (remote, _) = coordinator.measure(0, &request).unwrap();
        assert!(!coordinator.is_degraded(), "fleet is still up");

        worker.kill();
        let (degraded_values, _) = coordinator.measure(0, &request).unwrap();
        assert!(coordinator.is_degraded(), "fleet loss latched");
        assert_eq!(
            degraded_values, remote,
            "fallback must be bit-identical to the fleet"
        );
        // Once degraded, measure routes straight to the fallback.
        let (again, _) = coordinator.measure(0, &request).unwrap();
        assert_eq!(again, remote);
        assert_eq!(coordinator.slots(100), local.slots(100));
    }

    #[test]
    fn v2_worker_serves_a_v1_coordinator_with_v1_result_frames() {
        use proto::{read_frame, write_frame};

        let xml = test_config_xml();
        let fingerprint = gest_core::config_fingerprint(&xml);
        let worker = Worker::bind("127.0.0.1:0").unwrap().spawn();

        // Hand-rolled "old coordinator": speaks exactly protocol v1.
        let mut stream = std::net::TcpStream::connect(worker.addr()).unwrap();
        write_frame(&mut stream, &Frame::Hello { version: 1 }).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Hello { version } => assert_eq!(version, 1, "worker must downgrade to v1"),
            other => panic!("expected Hello, got {other:?}"),
        }
        write_frame(&mut stream, &Frame::Config { xml: xml.clone() }).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::ConfigAck {
                fingerprint: acked, ..
            } => assert_eq!(acked, fingerprint),
            other => panic!("expected ConfigAck, got {other:?}"),
        }
        write_frame(
            &mut stream,
            &Frame::EvalRequest {
                generation: 0,
                candidate: 42,
                genes: some_genes(&xml),
            },
        )
        .unwrap();
        // A v1 session must never see the v2 result kind.
        loop {
            match read_frame(&mut stream).unwrap() {
                Frame::Heartbeat => continue,
                Frame::EvalResult { candidate, outcome } => {
                    assert_eq!(candidate, 42);
                    assert!(outcome.is_ok(), "{outcome:?}");
                    break;
                }
                other => panic!("v1 session got non-v1 result frame: {other:?}"),
            }
        }
        write_frame(&mut stream, &Frame::Shutdown).unwrap();
        worker.kill();
    }

    #[test]
    fn v2_session_reports_worker_stats_to_coordinator_telemetry() {
        use gest_telemetry::{Event, MemorySink};

        let xml = test_config_xml();
        let worker = Worker::bind("127.0.0.1:0").unwrap().spawn();
        let sink = Arc::new(MemorySink::default());
        let telemetry = Telemetry::new(sink.clone());
        let coordinator = Coordinator::connect(
            &[worker.addr().to_string()],
            xml.clone(),
            telemetry.clone(),
            CoordinatorOptions::default(),
        )
        .unwrap();

        let genes = some_genes(&xml);
        let request = EvalRequest {
            generation: 0,
            candidate_id: 8,
            genes: &genes,
        };
        // The same request twice on one session: the worker keeps no
        // cache, so it measures both and both outcomes agree bit for bit.
        let (first, _) = coordinator.measure(0, &request).unwrap();
        let (second, _) = coordinator.measure(0, &request).unwrap();
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "a repeated request must measure bit-identically"
        );
        drop(coordinator);
        worker.kill();

        let events = sink.events();
        let measures: Vec<_> = events
            .iter()
            .filter_map(|event| match event {
                Event::Point { name, fields, .. } if name == "worker.measure" => Some(fields),
                _ => None,
            })
            .collect();
        assert_eq!(measures.len(), 2, "one worker.measure point per result");
        for fields in &measures {
            let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
            assert!(
                names.contains(&"host") && names.contains(&"measure_us"),
                "worker.measure must attribute a host and a measure time: {names:?}"
            );
            assert!(!names.contains(&"cache_hit"), "workers keep no cache");
        }
        assert!(
            telemetry
                .gauge_value("dist.worker.0.last_seen_us")
                .is_some(),
            "result frames must refresh the last-seen gauge"
        );
        assert!(
            telemetry.gauge_value("dist.worker.0.cache_hits").is_none(),
            "no per-worker cache gauges"
        );
    }

    #[test]
    fn fingerprint_mismatch_refuses_the_worker() {
        let worker = Worker::bind("127.0.0.1:0").unwrap().spawn();
        // Valid XML that parses but re-renders differently than sent:
        // append trailing whitespace, which the canonical rendering
        // drops, so the worker's fingerprint cannot match ours.
        let xml = format!("{}\n   ", test_config_xml());
        let err = Coordinator::connect(
            &[worker.addr().to_string()],
            xml,
            Telemetry::disabled(),
            CoordinatorOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, gest_core::GestError::Config(ref m) if m.contains("fingerprint")),
            "{err}"
        );
        worker.kill();
    }
}
