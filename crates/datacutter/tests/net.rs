//! Loopback-TCP integration tests for the distributed stream transport:
//! real sockets, real worker topologies, chaos through the wire, and the
//! TCP/shm conformance of the shared ingress loop.

use cgp_datacutter::{
    egress_pump, logical_stream, ring_path, serve_ingress, shm_dir, shm_supported, Buffer,
    BytePipe, ClosureFilter, FaultPlan, FilterIo, FilterResult, Frame, Ingress, LinkOptions,
    LinkProbe, NetLinkStats, Pipeline, RecoveryOptions, RunControl, ShmIngress, ShmSender,
    StageSpec, StreamWriter, WorkerEndpoints,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Encode a frame to raw bytes (tests drive the wire by hand).
fn raw(f: &Frame) -> Vec<u8> {
    cgp_datacutter::encode_frame(f)
}

fn hello(link: u32, producer: u32) -> Vec<u8> {
    raw(&Frame::Hello { link, producer })
}

fn data(from: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
    raw(&Frame::Data {
        from,
        seq,
        payload: payload.to_vec(),
    })
}

/// Read the 9-byte HelloAck and return its resume_seq.
fn read_hello_ack(s: &mut TcpStream) -> u64 {
    let mut buf = [0u8; 9];
    s.read_exact(&mut buf).expect("HelloAck");
    assert_eq!(buf[0], 2, "HelloAck tag");
    u64::from_le_bytes(buf[1..9].try_into().unwrap())
}

/// Three-stage source → double → sum pipeline; `total` receives the sum.
fn worker_pipeline(n: u64, width: usize, total: Arc<AtomicU64>) -> Pipeline {
    Pipeline::new()
        .with_capacity(8)
        .add_stage(StageSpec::new(
            "source",
            1,
            Box::new(move |_| {
                Box::new(ClosureFilter::new("source", move |io: &mut FilterIo| {
                    for i in 0..n {
                        io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "double",
            width,
            Box::new(|_| {
                Box::new(ClosureFilter::new("double", |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        let v = u64::from_le_bytes(b.as_slice().try_into().unwrap());
                        io.write(Buffer::from_vec((v * 2).to_le_bytes().to_vec()))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "sum",
            1,
            Box::new(move |_| {
                let total = Arc::clone(&total);
                Box::new(ClosureFilter::new("sum", move |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        let v = u64::from_le_bytes(b.as_slice().try_into().unwrap());
                        total.fetch_add(v, Ordering::Relaxed);
                    }
                    Ok(())
                }))
            }),
        ))
}

/// Run the three-stage pipeline as three workers over loopback and
/// return the sum.
fn run_three_workers(n: u64, width: usize, faults: Option<FaultPlan>) -> u64 {
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
    let a1 = l1.local_addr().unwrap().to_string();
    let a2 = l2.local_addr().unwrap().to_string();
    let total = Arc::new(AtomicU64::new(0));
    let mut listeners = [None, Some(l1), Some(l2)];
    let connects = [Some(a1), Some(a2), None];
    std::thread::scope(|scope| {
        for stage in 0..3 {
            let listener = listeners[stage].take();
            let connect = connects[stage].clone();
            let total = Arc::clone(&total);
            let faults = faults.clone();
            scope.spawn(move || {
                let mut p = worker_pipeline(n, width, total);
                if let Some(f) = faults {
                    p = p.with_faults(f).with_recovery(RecoveryOptions::on());
                }
                p.run_worker(WorkerEndpoints {
                    stage,
                    ingress: listener.map(Ingress::Tcp),
                    connect,
                })
                .unwrap_or_else(|e| panic!("worker {stage}: {e}"));
            });
        }
    });
    total.load(Ordering::Relaxed)
}

#[test]
fn three_workers_match_in_process_for_all_widths() {
    for width in [1usize, 2, 4] {
        let total = Arc::new(AtomicU64::new(0));
        worker_pipeline(100, width, Arc::clone(&total))
            .run()
            .unwrap();
        let expect = total.load(Ordering::Relaxed);
        assert_eq!(run_three_workers(100, width, None), expect, "width={width}");
    }
}

#[test]
fn chaos_fault_at_exact_packet_index_through_the_socket_is_recovered() {
    let expect: u64 = (0..200u64).map(|i| i * 2).sum();
    // Panic in the middle worker at packet 20: the restart replays the
    // unacked ingress tail, the egress pump dedups nothing (its acks are
    // per transmitted packet), and the result is exact.
    let plan = FaultPlan::new().panic_at("double", 0, 20);
    assert_eq!(run_three_workers(200, 2, Some(plan)), expect);
}

/// Per-producer FIFO: each producer's packets arrive in send order even
/// with several producers interleaving on separate connections.
#[test]
fn ingress_preserves_fifo_per_producer() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let producers = 3u32;
    let (writers, readers) = logical_stream(producers as usize, 1, 64, &LinkOptions::default());
    let serve =
        std::thread::spawn(move || serve_ingress(listener, 7, writers, &LinkOptions::default()));
    let senders: Vec<_> = (0..producers)
        .map(|p| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&hello(7, p)).unwrap();
                assert_eq!(read_hello_ack(&mut s), 0);
                for i in 0..50u64 {
                    s.write_all(&data(p, i, &[p as u8, i as u8])).unwrap();
                }
                s.write_all(&raw(&Frame::End { from: p })).unwrap();
                s.write_all(&raw(&Frame::Close)).unwrap();
            })
        })
        .collect();
    let mut last_seen = vec![None::<u8>; producers as usize];
    let mut reader = readers.into_iter().next().unwrap();
    let mut count = 0;
    while let Some(b) = reader.read() {
        let &[p, i] = b.as_slice() else {
            panic!("2-byte payload")
        };
        if let Some(prev) = last_seen[p as usize] {
            assert!(i > prev, "producer {p} out of order: {i} after {prev}");
        }
        last_seen[p as usize] = Some(i);
        count += 1;
    }
    assert_eq!(count, 150);
    for s in senders {
        s.join().unwrap();
    }
    let stats = serve.join().unwrap().unwrap();
    assert_eq!(stats.frames, 150);
    assert_eq!(stats.bytes, 300);
    assert_eq!(stats.deduped, 0);
}

/// Backpressure propagates through TCP: with a gated consumer and far
/// more in-flight data than the stream capacity + socket buffers can
/// hold, the producer must stall until the gate opens — and everything
/// still arrives intact.
#[test]
fn backpressure_bounds_the_producer_through_the_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Consumer side: capacity 2, a gate holding the reader shut.
    let (writers, readers) = logical_stream(1, 1, 2, &LinkOptions::default());
    let gate = Arc::new(AtomicBool::new(false));
    let serve =
        std::thread::spawn(move || serve_ingress(listener, 1, writers, &LinkOptions::default()));
    let gate2 = Arc::clone(&gate);
    let consumer = std::thread::spawn(move || {
        while !gate2.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reader = readers.into_iter().next().unwrap();
        let mut bytes = 0u64;
        let mut frames = 0u64;
        while let Some(b) = reader.read() {
            bytes += b.len() as u64;
            frames += 1;
        }
        (frames, bytes)
    });
    // Producer side: 16 × 4 MiB — far beyond what the capacity-2 stream
    // plus kernel socket buffers can absorb.
    let (mut pw, pr) = logical_stream(1, 1, 4, &LinkOptions::default());
    let done_sending = Arc::new(AtomicBool::new(false));
    let done2 = Arc::clone(&done_sending);
    let producer = std::thread::spawn(move || {
        for i in 0..16u8 {
            pw[0].write(Buffer::from_vec(vec![i; 4 << 20])).unwrap();
        }
        pw[0].close();
        done2.store(true, Ordering::Release);
    });
    let pump = std::thread::spawn(move || {
        egress_pump(
            pr.into_iter().next().unwrap(),
            &addr,
            1,
            0,
            &LinkOptions::default(),
        )
        .unwrap()
    });
    // With the gate shut the producer cannot finish: 64 MiB has nowhere
    // to go.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        !done_sending.load(Ordering::Acquire),
        "producer finished 64 MiB with the consumer gated — no backpressure"
    );
    gate.store(true, Ordering::Release);
    producer.join().unwrap();
    let (frames, bytes) = consumer.join().unwrap();
    assert_eq!(frames, 16);
    assert_eq!(bytes, 16 * (4 << 20) as u64);
    let egress = pump.join().unwrap();
    assert_eq!(egress.frames, 16);
    let ingress = serve.join().unwrap().unwrap();
    assert_eq!(ingress.bytes, egress.bytes);
}

/// A producer that dies mid-frame is corruption, not a clean disconnect:
/// the link fails with a Malformed error instead of hanging or silently
/// truncating the stream.
#[test]
fn disconnect_mid_frame_fails_the_link_loudly() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let control = RunControl::new();
    let (writers, readers) = logical_stream(1, 1, 16, &LinkOptions::default());
    let c2 = Arc::clone(&control);
    let serve = std::thread::spawn(move || {
        serve_ingress(
            listener,
            1,
            writers,
            &LinkOptions {
                control: Some(c2),
                ..Default::default()
            },
        )
    });
    let drain = std::thread::spawn(move || {
        let mut r = readers.into_iter().next().unwrap();
        let mut n = 0;
        while r.read().is_some() {
            n += 1;
        }
        n
    });
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&hello(1, 0)).unwrap();
    assert_eq!(read_hello_ack(&mut s), 0);
    s.write_all(&data(0, 0, b"complete")).unwrap();
    // Truncate the next frame: header promises 100 bytes, deliver 3 and
    // slam the connection.
    let partial = data(0, 1, &[9u8; 100]);
    s.write_all(&partial[..partial.len() - 97]).unwrap();
    drop(s);
    let err = serve.join().unwrap().unwrap_err();
    assert_eq!(err.kind, cgp_datacutter::ErrorKind::Malformed, "{err}");
    assert!(control.is_cancelled(), "a failed link cancels the run");
    // The local reader was unblocked (writers closed on the error path)
    // and saw only the complete packet.
    assert_eq!(drain.join().unwrap(), 1);
}

/// A clean disconnect + reconnect re-sending in-flight frames: the slot's
/// sequence watermark survives the connection, dedups the duplicates, and
/// the published resume watermark never regresses.
#[test]
fn reconnect_dedups_duplicates_and_never_regresses_acks() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (writers, readers) = logical_stream(1, 1, 16, &LinkOptions::default());
    let serve =
        std::thread::spawn(move || serve_ingress(listener, 3, writers, &LinkOptions::default()));
    let drain = std::thread::spawn(move || {
        let mut r = readers.into_iter().next().unwrap();
        let mut seen = Vec::new();
        while let Some(b) = r.read() {
            seen.push(b.as_slice()[0]);
        }
        seen
    });
    // First connection: deliver 0..3, then vanish cleanly (as a crashed-
    // and-restarted upstream process that had frames in flight would).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&hello(3, 0)).unwrap();
    assert_eq!(read_hello_ack(&mut s), 0);
    for i in 0..3u64 {
        s.write_all(&data(0, i, &[i as u8])).unwrap();
    }
    s.write_all(&raw(&Frame::Close)).unwrap();
    drop(s);
    // Give the handler thread time to park the feeder back in the slot
    // table (a real restarted process takes far longer to come back).
    std::thread::sleep(Duration::from_millis(300));
    // Reconnect: the watermark still stands at 3 — nothing regressed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&hello(3, 0)).unwrap();
    assert_eq!(
        read_hello_ack(&mut s),
        3,
        "resume watermark after reconnect"
    );
    // Re-send the duplicated in-flight tail (1, 2), then fresh data.
    for i in 1..5u64 {
        s.write_all(&data(0, i, &[i as u8])).unwrap();
    }
    s.write_all(&raw(&Frame::End { from: 0 })).unwrap();
    s.write_all(&raw(&Frame::Close)).unwrap();
    drop(s);
    assert_eq!(drain.join().unwrap(), vec![0, 1, 2, 3, 4], "exactly once");
    let stats = serve.join().unwrap().unwrap();
    assert_eq!(stats.frames, 5, "5 unique frames delivered");
    assert_eq!(stats.deduped, 2, "2 duplicated in-flight frames dropped");
}

/// Handshake hardening: wrong link, out-of-range producer, bad magic.
#[test]
fn handshake_rejects_wrong_link_and_producer() {
    for (hello_bytes, what) in [
        (hello(99, 0), "wrong link"),
        (hello(5, 7), "producer out of range"),
        (b"XXXX-garbage-that-is-not-a-frame".to_vec(), "bad tag"),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (writers, readers) = logical_stream(1, 1, 16, &LinkOptions::default());
        let serve = std::thread::spawn(move || {
            serve_ingress(listener, 5, writers, &LinkOptions::default())
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello_bytes).unwrap();
        let err = serve.join().unwrap().unwrap_err();
        assert_eq!(
            err.kind,
            cgp_datacutter::ErrorKind::Malformed,
            "{what}: {err}"
        );
        drop(s);
        // The local reader is released rather than stranded.
        let mut r = readers.into_iter().next().unwrap();
        assert!(r.read().is_none(), "{what}: reader unblocked");
    }
}

/// How one link ended: its stats, or the error's kind, endpoint (with
/// the `net.`/`shm.` transport prefix stripped) and message; plus what
/// the live probe counted before the end.
type Outcome = (
    Result<NetLinkStats, (cgp_datacutter::ErrorKind, String, String)>,
    NetLinkStats,
);

/// Serve a 1-producer link with `serve` while `feed` plays producer 0.
fn link_outcome<S>(prefix: &str, serve: S, feed: impl FnOnce()) -> Outcome
where
    S: FnOnce(Vec<StreamWriter>, &LinkOptions) -> FilterResult<NetLinkStats> + Send + 'static,
{
    let (writers, _readers) = logical_stream(1, 1, 16, &LinkOptions::default());
    let probe = Arc::new(LinkProbe::default());
    let opts = LinkOptions {
        probe: Some(Arc::clone(&probe)),
        ..Default::default()
    };
    let serve = std::thread::spawn(move || serve(writers, &opts));
    feed();
    let res = serve.join().unwrap().map_err(|e| {
        let endpoint = e.filter.strip_prefix(prefix).expect("transport prefix");
        (e.kind, endpoint.to_string(), e.message)
    });
    let live = NetLinkStats {
        frames: probe.frames.load(Ordering::Relaxed),
        bytes: probe.bytes.load(Ordering::Relaxed),
        deduped: probe.deduped.load(Ordering::Relaxed),
        ..Default::default()
    };
    (res, live)
}

fn over_tcp(frames: &[Frame]) -> Outcome {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve = move |w, opts: &LinkOptions| serve_ingress(listener, 7, w, opts);
    link_outcome("net.", serve, || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello(7, 0)).unwrap();
        assert_eq!(read_hello_ack(&mut s), 0);
        frames.iter().for_each(|f| s.write_all(&raw(f)).unwrap());
    })
}

fn over_shm(frames: &[Frame]) -> Outcome {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let base = shm_dir().join(format!("cgp-net-conformance-{}-{n}", std::process::id()));
    let base = base.display().to_string();
    let rings = ShmIngress::create(&base, 1, 1 << 16, None).unwrap();
    let serve = move |w, opts: &LinkOptions| rings.serve(7, w, opts);
    link_outcome("shm.", serve, || {
        let mut tx = ShmSender::attach(&ring_path(&base, 0), None, "test".into()).unwrap();
        tx.write_all(&hello(7, 0)).unwrap();
        frames.iter().for_each(|f| tx.write_all(&raw(f)).unwrap());
    })
}

/// Both transports run one ingress loop, so a bad frame sequence ends a
/// TCP link and a shm ring the same way: the same error kind and message,
/// the same endpoint apart from the transport prefix, and the same
/// counters. Close before End is left out on purpose: an unsupervised
/// TCP slot waits for the producer to reconnect, while an unsupervised
/// shm ring fails.
#[test]
fn tcp_and_shm_ingress_agree_on_bad_frame_sequences() {
    if !shm_supported() {
        return;
    }
    let data = |from: u32, seq: u64| Frame::Data {
        from,
        seq,
        payload: vec![seq as u8; 3],
    };
    let end = |from| Frame::End { from };
    let cases = [
        ("Data from the wrong producer", vec![data(0, 0), data(1, 1)]),
        ("End from the wrong producer", vec![data(0, 0), end(1)]),
        (
            "mid-stream HelloAck",
            vec![data(0, 0), Frame::HelloAck { resume_seq: 1 }],
        ),
        ("sequence gap", vec![data(0, 0), data(0, 2)]),
        (
            "duplicated seq",
            vec![data(0, 0), data(0, 1), data(0, 1), data(0, 2), end(0)],
        ),
    ];
    for (what, frames) in cases {
        let (res, live) = over_tcp(&frames);
        assert_eq!((res.clone(), live), over_shm(&frames), "{what}");
        match res {
            Ok(stats) => {
                assert_eq!(
                    (stats.frames, stats.bytes, stats.deduped),
                    (3, 9, 1),
                    "{what}"
                );
                assert_eq!(
                    stats, live,
                    "{what}: the live probe matches the final stats"
                );
            }
            Err((kind, endpoint, _)) => {
                assert_eq!(kind, cgp_datacutter::ErrorKind::Malformed, "{what}");
                assert_eq!(endpoint, "ingress[0]", "{what}");
                assert_eq!(live.frames, 1, "{what}: the good frame was delivered");
            }
        }
    }
}

/// Current thread count of this process (Linux; leak checks gated on it).
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Distributed runs — including faulted ones — must join every bridge
/// and handler thread.
#[cfg(target_os = "linux")]
#[test]
fn distributed_runs_leak_no_threads() {
    let _ = run_three_workers(50, 2, None); // warm-up
    let before = thread_count();
    for _ in 0..2 {
        let _ = run_three_workers(50, 2, None);
        let _ = run_three_workers(50, 2, Some(FaultPlan::new().panic_at("double", 0, 10)));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let after = thread_count();
        if after <= before {
            break;
        }
        if std::time::Instant::now() > deadline {
            panic!("thread count must return to baseline: before={before} after={after}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
