//! The one worker pool every runner in this crate maps its work through.
//!
//! Every CDF in the paper is "across topologies", so the basic operation
//! is mapping the engine over independent work items: suite topologies,
//! campus clusters, daemon cells, waveform grid points. [`map`] runs that
//! map on std scoped threads. Workers claim items one at a time from a
//! shared cursor (work stealing: a few slow items cannot idle the other
//! workers the way static chunking could), each worker owns one state
//! built by `init` for its whole run, and results come back in item
//! order. Per-item seeds derive from the item's index through
//! [`item_seed`], never from which worker claimed it, so every runner's
//! output is byte-identical for any thread count.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// The per-item seed: distinct and deterministic per index, so results
/// are independent of thread count and of which worker claims which item.
pub(crate) fn item_seed(base: u64, idx: usize) -> u64 {
    base.wrapping_add(idx as u64).wrapping_mul(0x9E37_79B9)
}

/// Maps `work(state, index, item)` over `items` with at most `threads`
/// workers and returns the results in item order.
///
/// Items may be shared (`&[T]`), exclusive (`&mut [T]`) or owned; each is
/// handed to exactly one worker. Each worker builds its state with `init`
/// once, so `init` runs at most `min(threads, n)` times. One worker runs
/// inline on the caller's thread, and empty input spawns nothing. A
/// panic in `work` is re-raised to the caller once every worker stopped.
pub(crate) fn map<I, S, R>(
    items: I,
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, I::Item) -> R + Sync,
) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
{
    let items = items.into_iter();
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    if workers == 1 {
        let mut state = init();
        return items
            .enumerate()
            .map(|(idx, item)| work(&mut state, idx, item))
            .collect();
    }
    let cursor = Mutex::new(items.enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        // invariant: the lock is held only across `next`,
                        // which never panics, so it cannot be poisoned
                        let claim = cursor.lock().expect("pool cursor").next();
                        let Some((idx, item)) = claim else { break };
                        done.push((idx, work(&mut state, idx, item)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (idx, r) in done {
                        slots[idx] = Some(r);
                    }
                }
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        // invariant: the cursor hands out every item exactly once
        .map(|r| r.expect("every item was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::prop::check;
    use copa_num::prop_assert_eq;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn serial(items: &[u64]) -> Vec<u64> {
        items
            .iter()
            .enumerate()
            .map(|(idx, &x)| item_seed(x, idx))
            .collect()
    }

    #[test]
    fn results_keep_item_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).map(|i| i * 7 + 3).collect();
        let expected = serial(&items);
        for threads in [1, 2, 3, 8, 200] {
            let got = map(&items, threads, || (), |_, idx, &x| item_seed(x, idx));
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn every_mut_item_is_visited_exactly_once() {
        for threads in [1, 2, 3, 8, 200] {
            let mut visits = vec![0u32; 61];
            let idxs = map(
                &mut visits,
                threads,
                || (),
                |_, idx, v| {
                    *v += 1;
                    idx
                },
            );
            assert_eq!(idxs, (0..61).collect::<Vec<_>>(), "{threads} threads");
            assert!(visits.iter().all(|&v| v == 1), "{threads} threads");
        }
    }

    #[test]
    fn init_runs_at_most_once_per_worker_and_never_for_empty_input() {
        for (n, threads) in [(0, 4), (1, 4), (3, 8), (10, 2), (10, 1), (5, 0)] {
            let inits = AtomicUsize::new(0);
            let out = map(
                0..n,
                threads,
                || inits.fetch_add(1, Ordering::SeqCst),
                |_, _, x| x,
            );
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            let ran = inits.load(Ordering::SeqCst);
            assert!(ran <= threads.max(1).min(n), "{n} items, {threads} threads");
            assert_eq!(ran == 0, n == 0, "{n} items, {threads} threads");
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        for threads in [1, 2, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map(
                    0..16,
                    threads,
                    || (),
                    |_, _, x: u32| {
                        assert!(x != 11, "item {x} exploded");
                        x
                    },
                )
            }));
            let payload = caught.expect_err("the panic must propagate");
            let text = payload
                .downcast_ref::<String>()
                .expect("formatted assert payload");
            assert!(
                text.contains("item 11 exploded"),
                "{threads} threads: {text}"
            );
        }
    }

    #[test]
    fn prop_map_equals_the_serial_map() {
        check("pool map equals serial map", 48, |g| {
            let n = g.usize_in(0, 201);
            let threads = g.usize_in(1, 17);
            let items: Vec<u64> = (0..n).map(|_| g.u64()).collect();
            let got = map(&items, threads, || (), |_, idx, &x| item_seed(x, idx));
            prop_assert_eq!(got, serial(&items), "{n} items, {threads} threads");
            Ok(())
        });
    }
}
