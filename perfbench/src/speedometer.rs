//! Host speedometer: a fixed reference kernel on a thread of its own,
//! pinned to the same CPU as the workload, so that the two take turns on
//! that CPU for the whole run.
//!
//! On a shared VM the speed of a vCPU drifts with what other tenants of
//! the host run beside it, by up to 1.7x from one second to the next and
//! in phases of tens of seconds to minutes, while the process stays
//! on-CPU (no steal time is reported, no hardware counters are exposed).
//! A host time measured in one run then says as much about the
//! neighbours as about the program. The speedometer's steps per on-CPU
//! second say how fast the CPU was while the workload shared it, every
//! few milliseconds, so a host time can be restated at a fixed reference
//! speed ([`at_reference`]). The kernel uses none of the crates the
//! benchmark measures, so a change to them moves the workload's times but
//! not the speedometer's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::common::{thread_cpu_ns, Rng};

/// Kernel steps per on-CPU second at the reference speed: the kernel's
/// rate on a 2-vCPU Intel Xeon VM at 2.0 GHz in one of the host's fast
/// phases. Host times are restated at this speed.
pub const REF_STEPS_PER_S: f64 = 9.0e6;

/// How strongly the workload's on-CPU time follows the kernel's: when
/// the kernel's time per step grows by a factor f, the workload's time
/// per request grows by f^SENSITIVITY. Least-squares slopes of log time
/// per request on log kernel time per step, over every repetition of
/// three 2-to-4-minute runs of each workload on the VM above, were 1.43
/// to 1.62 on `get_closed` and 1.45 to 1.61 on `cluster_rw`.
pub const SENSITIVITY: f64 = 1.5;

/// A host time `t` measured while the CPU ran at `speed` (see
/// [`Reading::speed_until`]), restated at the reference speed.
pub fn at_reference(t: f64, speed: f64) -> f64 {
    t * speed.powf(SENSITIVITY)
}

/// Words in the kernel's table: 32 KiB, so that the kernel leaves little
/// of the workload's cache behind it when they swap.
const TABLE_WORDS: usize = 1 << 12;
/// Events the kernel's queue holds at once.
const QUEUE_LEN: usize = 4096;
/// Steps between two updates of the published counters.
const CHUNK: u64 = 2000;

pub struct Speedometer {
    steps: Arc<AtomicU64>,
    cpu_ns: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// A reading: kernel steps done and the kernel thread's on-CPU time.
#[derive(Clone, Copy)]
pub struct Reading {
    steps: u64,
    cpu_ns: u64,
}

impl Speedometer {
    pub fn start() -> Speedometer {
        let steps = Arc::new(AtomicU64::new(0));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (steps, cpu_ns, stop) = (steps.clone(), cpu_ns.clone(), stop.clone());
            std::thread::spawn(move || kernel(&steps, &cpu_ns, &stop))
        };
        // The kernel's own allocations are made before its first chunk:
        // wait for it, so none of them lands in a repetition's figures.
        while steps.load(Ordering::Acquire) == 0 && !thread.is_finished() {
            std::thread::yield_now();
        }
        Speedometer {
            steps,
            cpu_ns,
            stop,
            thread: Some(thread),
        }
    }

    pub fn read(&self) -> Reading {
        // The kernel publishes `cpu_ns` before `steps`, so a reading
        // never counts steps whose CPU time it does not hold.
        let steps = self.steps.load(Ordering::Acquire);
        Reading {
            steps,
            cpu_ns: self.cpu_ns.load(Ordering::Acquire),
        }
    }

    /// Stop the kernel and wait for its thread; a panic there is
    /// reported as an error.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| "speedometer thread panicked".to_string()),
            None => Ok(()),
        }
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

impl Reading {
    /// The CPU's speed between `self` and a later reading, relative to
    /// the reference: 0.5 when the kernel ran at half the reference rate.
    pub fn speed_until(&self, later: &Reading) -> f64 {
        let steps = (later.steps - self.steps) as f64;
        let secs = later.cpu_ns.saturating_sub(self.cpu_ns).max(1) as f64 / 1e9;
        steps / secs / REF_STEPS_PER_S
    }
}

/// Each step pops the earliest event from a binary heap, reads and
/// updates a random word of the table, fills a small buffer and
/// schedules a new event: the kinds of work an event engine does. It
/// allocates nothing once started, so the counting allocator's figures
/// stay the workload's own.
fn kernel(steps: &AtomicU64, cpu_ns: &AtomicU64, stop: &AtomicBool) {
    let mut rng = Rng::new(7);
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64).collect();
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..QUEUE_LEN as u32)
        .map(|i| Reverse((rng.below(1 << 20), i)))
        .collect();
    let mut acc = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..CHUNK {
            let Reverse((t, id)) = queue.pop().expect("the queue is never empty");
            let slot = (rng.next() as usize) & (TABLE_WORDS - 1);
            table[slot] = table[slot].wrapping_add(t ^ u64::from(id));
            let buf = [table[slot]; 8];
            acc = acc.wrapping_add(black_box(buf)[id as usize & 7]);
            queue.push(Reverse((t + 1 + rng.below(1 << 16), id)));
        }
        cpu_ns.store(thread_cpu_ns().unwrap_or(0), Ordering::Release);
        steps.fetch_add(CHUNK, Ordering::Release);
    }
    black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_steps_per_cpu_second_over_the_reference() {
        let a = Reading {
            steps: 1_000,
            cpu_ns: 5_000_000,
        };
        // 9 000 steps in 1 ms of CPU: the reference rate.
        let b = Reading {
            steps: 10_000,
            cpu_ns: 6_000_000,
        };
        assert!((a.speed_until(&b) - 1.0).abs() < 1e-12);
        assert_eq!(at_reference(100.0, 1.0), 100.0);
        // At a quarter of the reference speed: 100 * 0.25^1.5.
        assert!((at_reference(100.0, 0.25) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn runs_until_stopped() {
        let m = Speedometer::start();
        let r0 = m.read();
        while m.read().steps == r0.steps {
            std::thread::yield_now();
        }
        m.stop().expect("the kernel thread ends cleanly");
    }
}
