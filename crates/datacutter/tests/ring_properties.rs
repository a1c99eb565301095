//! Property-style tests for the lock-free SPSC ring (`cgp_datacutter::spsc`).
//!
//! Cases are drawn from a seeded PRNG (the build is offline, so no
//! proptest) — failures reproduce deterministically from the printed
//! case parameters.

use cgp_datacutter::{spsc, CancelToken};
use cgp_obs::SmallRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// FIFO: with a concurrent producer using a random mix of `send` and
/// `send_batch`, the consumer (mixing `recv` and `try_recv_batch`)
/// observes exactly 0..n in order, for many capacities and sizes.
#[test]
fn fifo_order_survives_random_batching() {
    let mut rng = SmallRng::seed_from_u64(0x51C0);
    for case in 0..24 {
        let capacity = rng.gen_range(1, 33);
        let total = rng.gen_range(1, 2049) as u64;
        let tx_seed = rng.next_u64();
        let rx_seed = rng.next_u64();
        let (tx, rx) = spsc::<u64>(capacity, None);

        let producer = thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(tx_seed);
            let mut next = 0u64;
            while next < total {
                if rng.gen_bool(0.5) {
                    tx.send(next).expect("receiver alive");
                    next += 1;
                } else {
                    let n = rng.gen_range(1, 17).min((total - next) as usize);
                    let mut batch: VecDeque<u64> = (next..next + n as u64).collect();
                    tx.send_batch(&mut batch).expect("receiver alive");
                    assert!(batch.is_empty(), "send_batch left a remainder");
                    next += n as u64;
                }
            }
        });

        let mut rng = SmallRng::seed_from_u64(rx_seed);
        let mut expect = 0u64;
        while expect < total {
            if rng.gen_bool(0.5) {
                let got = rx.recv().expect("sender alive or queue non-empty");
                assert_eq!(
                    got, expect,
                    "case {case}: capacity={capacity} total={total} out of order"
                );
                expect += 1;
            } else {
                let mut out: Vec<u64> = Vec::new();
                let max = rng.gen_range(1, 17);
                let taken = rx.try_recv_batch(max, &mut out).expect("connected");
                assert!(taken <= max);
                for got in out {
                    assert_eq!(
                        got, expect,
                        "case {case}: capacity={capacity} total={total} out of order"
                    );
                    expect += 1;
                }
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty(), "case {case}: ring not drained");
    }
}

/// Backpressure: the queue never holds more than `capacity` messages,
/// even though the slot array is rounded up to a power of two. Observed
/// from both endpoints while the consumer drains slowly.
#[test]
fn backpressure_never_exceeds_capacity() {
    let mut rng = SmallRng::seed_from_u64(0xBAC0);
    for _ in 0..12 {
        let capacity = rng.gen_range(1, 20); // mostly non-powers-of-two
        let total = 64 + capacity as u64 * 8;
        let (tx, rx) = spsc::<u64>(capacity, None);

        let cap = capacity;
        let producer = thread::spawn(move || {
            for i in 0..total {
                assert!(tx.len() <= cap, "tx saw len {} > capacity {cap}", tx.len());
                tx.send(i).expect("receiver alive");
            }
        });

        for _ in 0..total {
            assert!(
                rx.len() <= capacity,
                "rx saw len {} > capacity {capacity}",
                rx.len()
            );
            // Drain slowly so the producer actually hits the bound.
            thread::yield_now();
            rx.recv().expect("sender alive or queue non-empty");
        }
        producer.join().unwrap();
    }
}

/// Wraparound: cursors cross the capacity boundary thousands of times
/// without corrupting or reordering payloads, for capacities at and
/// around powers of two.
#[test]
fn wraparound_at_capacity_boundaries_is_clean() {
    for capacity in [1usize, 2, 3, 4, 7, 8, 9, 15, 16, 17] {
        let total = (capacity as u64) * 4096 + 13;
        let (tx, rx) = spsc::<u64>(capacity, None);
        let producer = thread::spawn(move || {
            for i in 0..total {
                // A payload that detects slot aliasing, not just reordering.
                tx.send(i.wrapping_mul(0x9e3779b97f4a7c15))
                    .expect("receiver alive");
            }
        });
        for i in 0..total {
            let got = rx.recv().expect("sender alive or queue non-empty");
            assert_eq!(
                got,
                i.wrapping_mul(0x9e3779b97f4a7c15),
                "capacity={capacity}: corrupt payload at message {i}"
            );
        }
        producer.join().unwrap();
    }
}

/// Disconnect mid-batch: when the receiver drops while a `send_batch`
/// is blocked on backpressure, the error hands back exactly the unsent
/// remainder (no loss, no duplication of what was already queued).
#[test]
fn receiver_drop_mid_batch_returns_the_remainder() {
    let mut rng = SmallRng::seed_from_u64(0xD15C);
    for case in 0..16 {
        let capacity = rng.gen_range(1, 9);
        let drain = rng.gen_range(0, capacity + 1);
        // More than the ring holds plus what the receiver takes: the batch
        // must still be blocked on backpressure when the receiver drops.
        let batch_len = capacity + drain + rng.gen_range(1, 9);
        let (tx, rx) = spsc::<u64>(capacity, None);

        let producer = thread::spawn(move || {
            let mut batch: VecDeque<u64> = (0..batch_len as u64).collect();
            let err = tx
                .send_batch(&mut batch)
                .expect_err("receiver drop must fail the batch");
            assert!(batch.is_empty(), "failed send_batch must take the queue");
            err.0
        });

        // Accept a prefix, then walk away mid-batch.
        let mut got: Vec<u64> = Vec::new();
        while got.len() < drain {
            got.push(rx.recv().expect("sender still batching"));
        }
        drop(rx);
        let remainder = producer.join().unwrap();

        // Everything received is a prefix of 0..batch_len, and the
        // remainder resumes after the last message the ring accepted
        // (received or still queued at the drop).
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, i as u64, "case {case}: received out of order");
        }
        let first_unsent = remainder.front().copied().unwrap_or(batch_len as u64);
        assert!(
            first_unsent >= got.len() as u64 && first_unsent <= (drain + capacity) as u64,
            "case {case}: capacity={capacity} batch_len={batch_len} drain={drain} \
             remainder starts at {first_unsent}, received {}",
            got.len()
        );
        let tail: Vec<u64> = remainder.iter().copied().collect();
        let want: Vec<u64> = (first_unsent..batch_len as u64).collect();
        assert_eq!(tail, want, "case {case}: remainder not a contiguous suffix");
    }
}

/// Cancellation beats queued data and unblocks both parked endpoints:
/// a blocked `recv` and a backpressured `send` each fail promptly once
/// the token fires, exactly like the mutex channel.
#[test]
fn cancel_unparks_both_endpoints_and_beats_queued_data() {
    // Parked receiver, empty ring.
    let token = CancelToken::new();
    let (tx, rx) = spsc::<u64>(4, Some(&token));
    let consumer = thread::spawn(move || rx.recv());
    thread::sleep(Duration::from_millis(20)); // let it reach the park path
    token.cancel();
    assert!(consumer.join().unwrap().is_err(), "cancel must wake recv");
    assert!(tx.send(1).is_err(), "send after cancel must fail");

    // Parked sender, full ring — and queued data is not delivered after
    // cancellation.
    let token = CancelToken::new();
    let (tx, rx) = spsc::<u64>(2, Some(&token));
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    let producer = thread::spawn(move || tx.send(3));
    thread::sleep(Duration::from_millis(20));
    token.cancel();
    assert!(producer.join().unwrap().is_err(), "cancel must wake send");
    assert!(rx.recv().is_err(), "cancellation beats queued data");
}

/// No leaked threads: every blocking participant in a randomized
/// produce/consume/disconnect schedule reaches `join()`, including
/// producers parked on a full ring at receiver-drop and consumers
/// parked on an empty ring at sender-drop.
#[test]
fn disconnects_release_every_parked_thread() {
    let mut rng = SmallRng::seed_from_u64(0x7EAD);
    for case in 0..16 {
        let capacity = rng.gen_range(1, 9);
        let drop_rx_first = rng.gen_bool(0.5);
        let (tx, rx) = spsc::<u64>(capacity, None);
        let parked = Arc::new(AtomicBool::new(false));

        if drop_rx_first {
            // Producer fills the ring, then blocks; receiver drop frees it.
            let flag = Arc::clone(&parked);
            let producer = thread::spawn(move || {
                for i in 0.. {
                    if i == capacity as u64 {
                        flag.store(true, Ordering::Release);
                    }
                    if tx.send(i).is_err() {
                        return i;
                    }
                }
                unreachable!()
            });
            while !parked.load(Ordering::Acquire) {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(5)); // reach the park path
            drop(rx);
            let sent = producer.join().unwrap();
            assert!(
                sent >= capacity as u64,
                "case {case}: producer failed before filling capacity {capacity}"
            );
        } else {
            // Consumer drains the ring, then blocks; sender drop frees it.
            let flag = Arc::clone(&parked);
            let consumer = thread::spawn(move || {
                let mut got = 0u64;
                loop {
                    match rx.recv() {
                        Ok(v) => {
                            assert_eq!(v, got);
                            got += 1;
                            if got == capacity as u64 {
                                flag.store(true, Ordering::Release);
                            }
                        }
                        Err(_) => return got,
                    }
                }
            });
            for i in 0..capacity as u64 {
                tx.send(i).unwrap();
            }
            while !parked.load(Ordering::Acquire) {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(5));
            drop(tx);
            let got = consumer.join().unwrap();
            assert_eq!(
                got, capacity as u64,
                "case {case}: consumer lost queued messages at disconnect"
            );
        }
    }
}
