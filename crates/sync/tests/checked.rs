//! End-to-end exercises of the checked facade under `interleave`
//! exploration: correct bodies stay green across many schedules, seeded
//! bugs (lost update, ABBA, lost notify, if-instead-of-while waits) are
//! detected, and failures replay from their printed token.

use gendt_sync::atomic::{AtomicU64, Ordering};
use gendt_sync::time::Instant;
use gendt_sync::{mpsc, thread, Condvar, Mutex};
use interleave::{Config, FailureKind};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn mutex_counter_is_exact_across_schedules() {
    let cfg = Config::random(150, 11);
    let report = interleave::explore(&cfg, || {
        let counter = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let c = counter.clone();
                thread::spawn(move || {
                    let mut g = c.lock();
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 3);
    });
    assert!(
        report.ok(),
        "unexpected failure:\n{}",
        report.failure.unwrap()
    );
    assert_eq!(report.schedules, 150);
}

#[test]
fn atomic_rmw_counter_is_exact() {
    let cfg = Config::random(150, 12);
    let report = interleave::explore(&cfg, || {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let c = counter.clone();
                thread::spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    });
    assert!(
        report.ok(),
        "unexpected failure:\n{}",
        report.failure.unwrap()
    );
}

#[test]
fn lost_update_load_store_detected_and_replays() {
    let cfg = Config::random(400, 13);
    let body = || {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = counter.clone();
                thread::spawn(move || {
                    // Seeded bug: non-atomic read-modify-write.
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    };
    let report = interleave::explore(&cfg, body);
    let failure = report.failure.expect("lost update must be found");
    assert_eq!(failure.kind, FailureKind::LostUpdate, "{failure}");

    // The printed token reproduces the same finding in one schedule.
    let replayed = interleave::replay(&cfg, &failure.replay_token(), body);
    let refound = replayed.failure.expect("replay must reproduce the failure");
    assert_eq!(refound.kind, FailureKind::LostUpdate);
    assert_eq!(replayed.schedules, 1);
}

#[test]
fn lock_order_inversion_detected() {
    let cfg = Config::random(300, 14);
    let report = interleave::explore(&cfg, || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a1, b1) = (a.clone(), b.clone());
        let h1 = thread::spawn(move || {
            let _ga = a1.lock();
            let _gb = b1.lock();
        });
        let (a2, b2) = (a.clone(), b.clone());
        let h2 = thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
        });
        let _ = h1.join();
        let _ = h2.join();
    });
    let failure = report.failure.expect("ABBA must be found");
    assert!(
        matches!(
            failure.kind,
            FailureKind::LockOrderCycle | FailureKind::Deadlock
        ),
        "{failure}"
    );
}

#[test]
fn lost_notify_detected_as_deadlock() {
    let cfg = Config::random(300, 15);
    let report = interleave::explore(&cfg, || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let s1 = state.clone();
        let waiter = thread::spawn(move || {
            let (m, cv) = &*s1;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        let s2 = state.clone();
        let setter = thread::spawn(move || {
            let (m, _cv) = &*s2;
            // Seeded bug: flag set without notify_one — if the waiter is
            // already parked, it sleeps forever.
            *m.lock() = true;
        });
        let _ = setter.join();
        let _ = waiter.join();
    });
    let failure = report.failure.expect("lost wakeup must be found");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
    assert!(failure.message.contains("lost wakeup"), "{failure}");
}

#[test]
fn if_instead_of_while_wait_broken_by_spurious_wakeup() {
    let cfg = Config::random(300, 16);
    let report = interleave::explore(&cfg, || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let s1 = state.clone();
        let waiter = thread::spawn(move || {
            let (m, cv) = &*s1;
            let mut g = m.lock();
            // Seeded bug: `if` instead of `while` — a spurious wakeup
            // falls through with the predicate still false.
            if !*g {
                g = cv.wait(g);
            }
            assert!(*g, "woke without the predicate set");
        });
        let s2 = state.clone();
        let setter = thread::spawn(move || {
            let (m, cv) = &*s2;
            *m.lock() = true;
            cv.notify_one();
        });
        let _ = setter.join();
        let _ = waiter.join();
    });
    let failure = report
        .failure
        .expect("spurious wakeup must break the `if` wait");
    assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
    assert!(
        failure.message.contains("woke without the predicate set"),
        "{failure}"
    );
}

#[test]
fn wait_timeout_fires_on_virtual_clock() {
    // Spurious wakeups off: with them on, the scheduler may (correctly)
    // wake the wait early without a timeout, which is its own test above.
    let mut cfg = Config::random(20, 17);
    cfg.spurious = 0;
    let report = interleave::explore(&cfg, || {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let start = Instant::now();
        let g = m.lock();
        let (_g, res) = cv.wait_timeout(g, Duration::from_millis(5));
        // Nobody notifies: the only way forward is the timeout firing on
        // the virtual clock.
        assert!(res.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(5));
    });
    assert!(
        report.ok(),
        "unexpected failure:\n{}",
        report.failure.unwrap()
    );
}

#[test]
fn mpsc_delivers_exactly_once_then_disconnects() {
    let cfg = Config::random(150, 18);
    let report = interleave::explore(&cfg, || {
        let (tx, rx) = mpsc::channel::<u32>();
        let producer = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).expect("receiver alive");
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    });
    assert!(
        report.ok(),
        "unexpected failure:\n{}",
        report.failure.unwrap()
    );
}

#[test]
fn dfs_mode_exhausts_small_model() {
    let cfg = Config::dfs(5_000, 2);
    let report = interleave::explore(&cfg, || {
        let counter = Arc::new(Mutex::new(0u64));
        let c = counter.clone();
        let h = thread::spawn(move || {
            *c.lock() += 1;
        });
        *counter.lock() += 1;
        h.join().unwrap();
        assert_eq!(*counter.lock(), 2);
    });
    assert!(
        report.ok(),
        "unexpected failure:\n{}",
        report.failure.unwrap()
    );
    // More than one schedule explored, and exhaustion reached below budget.
    assert!(
        report.schedules > 1,
        "DFS explored {} schedules",
        report.schedules
    );
    assert!(
        report.schedules < 5_000,
        "DFS should exhaust, ran {}",
        report.schedules
    );
}

#[test]
fn thread_leak_reported() {
    let cfg = Config::random(5, 19);
    let report = interleave::explore(&cfg, || {
        let m = Arc::new(Mutex::new(0u8));
        let m2 = m.clone();
        // Seeded bug: spawned thread never joined.
        let _h = thread::spawn(move || {
            *m2.lock() = 1;
        });
    });
    let failure = report.failure.expect("leak must be reported");
    assert_eq!(failure.kind, FailureKind::ThreadLeak, "{failure}");
}

#[test]
fn facade_is_plain_std_outside_exploration() {
    // Same types, no exploration: behaves like std (smoke).
    let m = Arc::new(Mutex::new(0u64));
    let cv = Arc::new(Condvar::new());
    let m2 = m.clone();
    let cv2 = cv.clone();
    let h = thread::spawn(move || {
        let mut g = m2.lock();
        *g = 7;
        cv2.notify_one();
    });
    {
        let mut g = m.lock();
        while *g == 0 {
            g = cv.wait(g);
        }
        assert_eq!(*g, 7);
    }
    h.join().unwrap();
    let (tx, rx) = mpsc::channel();
    tx.send(3u8).unwrap();
    assert_eq!(rx.recv(), Ok(3));
    drop(tx);
    assert_eq!(rx.recv(), Err(mpsc::RecvError));
}

#[test]
fn injected_spurious_wakeup_outside_exploration() {
    // The deterministic test hook works in plain mode too: a wait returns
    // immediately without a notifier. The budget is this condvar's own,
    // so the waits of tests running in parallel cannot take it.
    let m = Mutex::new(());
    let cv = Condvar::new();
    cv.inject_spurious_wakeups(1);
    let g = m.lock();
    let (_g, res) = cv.wait_timeout(g, Duration::from_secs(60));
    assert!(!res.timed_out(), "spurious wakeup is not a timeout");
}
