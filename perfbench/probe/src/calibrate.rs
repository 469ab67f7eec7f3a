//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed drifts by 20–30% in
//! phases of tens of seconds to minutes: every tenant's code, this one's
//! included, runs slower for a while. A time measured in such a phase
//! says more about the neighbours than about the program. So every timed
//! sample is bracketed by two runs of a fixed reference kernel that does
//! not call the library, and is scaled by how fast the host ran that
//! kernel right then:
//!
//! ```text
//! normalised = raw * CAL_REF_NS / mean(kernel time before, kernel time after)
//! ```
//!
//! A normalised time reads in seconds at the reference host's speed. A
//! program change moves the raw time and leaves the kernel alone, so it
//! shows in the normalised time in full.
//!
//! The kernel has three parts, since the slow phases slow branchy,
//! cache-bound and compute-bound code by different amounts: sorting
//! pseudo-random keys (branchy, larger than a core's L2 cache; on its own
//! it tracked the figure binaries best), a dependent memory-latency chain
//! over a 64 MiB table, and an integer multiply-rotate chain. One
//! measurement takes the best of `CAL_REPS` repeats of each part: about
//! 30 ms of kernel time, 100 ms with the repeats, on the reference host. The kernel runs in a process of its own (`perfbench-probe
//! calibrate`), so its table never counts towards a measured process's
//! peak memory.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The kernel's time on the reference host (a 2-vCPU Intel Xeon VM at
/// 2.1 GHz in a fast phase). Only a scale: it makes normalised times
/// read about like raw times there.
const CAL_REF_NS: f64 = 30e6;
/// Table entries of the memory chain (64 MiB of `u32`).
const TABLE_ENTRIES: usize = 1 << 24;
/// Keys per sort repeat (4 MiB of `u64`).
const SORT_KEYS: u64 = 1 << 19;
/// Loads per memory-chain repeat.
const CHASE_STEPS: u32 = 50_000;
/// Iterations per compute-chain repeat.
const COMPUTE_STEPS: u64 = 3_500_000;
/// Repeats per measurement; each part keeps its best.
const CAL_REPS: usize = 3;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference kernel and its table.
pub struct Kernel {
    table: Vec<u32>,
}

impl Kernel {
    /// Fills the table with fixed pseudo-random words.
    pub fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let table = (0..TABLE_ENTRIES).map(|_| xorshift(&mut s) as u32).collect();
        Kernel { table }
    }

    /// One measurement of the kernel, in units of its reference time
    /// (above 1 when the host runs slower than the reference host did).
    pub fn sample(&self) -> f64 {
        let mask = (TABLE_ENTRIES - 1) as u32;
        let (mut sort, mut chase, mut compute) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..CAL_REPS {
            let t = Instant::now();
            let mut keys: Vec<u64> = (0..black_box(SORT_KEYS))
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
                .collect();
            keys.sort_unstable();
            black_box(&keys);
            drop(keys);
            sort = sort.min(t.elapsed().as_nanos() as f64);

            // Each load's address depends on the word the previous load
            // returned, so the loads cannot overlap; mixing in the step
            // keeps the chain from settling into a short, cached cycle.
            let t = Instant::now();
            let mut p = 0u32;
            for i in 0..CHASE_STEPS {
                p = (self.table[p as usize] ^ i.wrapping_mul(0x9E37_79B1)) & mask;
            }
            black_box(p);
            chase = chase.min(t.elapsed().as_nanos() as f64);

            let t = Instant::now();
            let mut h = 1u64;
            for i in 0..black_box(COMPUTE_STEPS) {
                h = (h ^ i).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(5);
            }
            black_box(h);
            compute = compute.min(t.elapsed().as_nanos() as f64);
        }
        (sort + chase + compute) / CAL_REF_NS
    }

    /// The `calibrate` subcommand: one measurement per line read from
    /// stdin, printed on its own line, until stdin closes.
    pub fn serve(&self) -> Result<(), String> {
        let stdin = std::io::stdin();
        let mut out = std::io::stdout().lock();
        for line in stdin.lock().lines() {
            line.map_err(|e| e.to_string())?;
            writeln!(out, "{}", self.sample()).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// A `calibrate` process, for measurements from within the probe.
pub struct Calibrator {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Calibrator {
    pub fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("calibrate")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("calibrate: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("calibrate: no stdout")?;
        Ok(Calibrator {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    /// One measurement, as `Kernel::sample` gives it.
    pub fn sample(&mut self) -> Result<f64, String> {
        let err = |e: std::io::Error| format!("calibrate: {e}");
        let stdin = self.stdin.as_mut().ok_or("calibrate: closed")?;
        stdin.write_all(b"\n").map_err(err)?;
        stdin.flush().map_err(err)?;
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(err)?;
        line.trim()
            .parse()
            .map_err(|_| format!("calibrate: bad reply {line:?}"))
    }
}

impl Drop for Calibrator {
    /// Closes the process's stdin, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The factor that scales a raw time measured between the measurements
/// `before` and `after` to the reference host's speed. `run.py` repeats
/// this formula.
pub fn speed_factor(before: f64, after: f64) -> f64 {
    2.0 / (before + after)
}
