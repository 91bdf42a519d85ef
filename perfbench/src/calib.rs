//! A fixed reference workload that times how fast the machine runs right
//! now, so the time metrics can be stated in reference seconds.
//!
//! The host this benchmark runs on is shared: the speed of identical work
//! drifts by a factor of two over minutes, in CPU time as much as in wall
//! time, and every time the program reports drifts with it. The reference
//! workload runs in the gaps before and after every batch, on as many
//! threads as the batch uses, and does what the solver's inner loop does:
//! unit propagation over occurrence lists of a random 3-SAT instance of
//! about 20 MiB, with random decisions and full undo on conflict. It is code
//! of this package only, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Variables of the reference instance.
const VARS: usize = 200_000;

/// Clauses of the reference instance (ratio 4, near the 3-SAT threshold,
/// so decisions propagate far and conflicts are frequent).
const CLAUSES: usize = 800_000;

/// Occurrence-list visits per thread in one timing.
const VISITS: u64 = 7_000_000;

/// Wall seconds one timing is defined to take: a reference second is the
/// time in which the machine runs `1 / REFERENCE_S` timings per thread.
pub const REFERENCE_S: f64 = 0.3;

/// One timing on every thread.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall seconds until the last thread finished.
    pub wall_s: f64,
    /// CPU seconds per thread, averaged over the threads.
    pub cpu_s: f64,
}

impl Timing {
    /// Wall seconds measured at this timing's speed, in reference seconds.
    pub fn wall_to_reference(&self, seconds: f64) -> f64 {
        seconds * REFERENCE_S / self.wall_s
    }

    /// CPU seconds measured at this timing's speed, in reference seconds.
    pub fn cpu_to_reference(&self, seconds: f64) -> f64 {
        seconds * REFERENCE_S / self.cpu_s
    }
}

/// xorshift64: the reference workload's fixed random stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The reference instance: clauses over literals `2v + sign`, and per
/// literal the clauses it occurs in (compressed rows).
pub struct Reference {
    clauses: Vec<[u32; 3]>,
    occ_start: Vec<u32>,
    occ: Vec<u32>,
}

impl Reference {
    /// Builds the instance from a fixed seed.
    pub fn new() -> Self {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let clauses: Vec<[u32; 3]> = (0..CLAUSES)
            .map(|_| {
                let mut lit = || {
                    let r = rng.next();
                    ((r >> 1) % VARS as u64) as u32 * 2 + (r & 1) as u32
                };
                [lit(), lit(), lit()]
            })
            .collect();
        let mut occ_start = vec![0u32; 2 * VARS + 1];
        for &l in clauses.iter().flatten() {
            occ_start[l as usize + 1] += 1;
        }
        for i in 0..2 * VARS {
            occ_start[i + 1] += occ_start[i];
        }
        let mut fill = occ_start.clone();
        let mut occ = vec![0u32; 3 * CLAUSES];
        for (ci, clause) in clauses.iter().enumerate() {
            for &l in clause {
                occ[fill[l as usize] as usize] = ci as u32;
                fill[l as usize] += 1;
            }
        }
        Reference {
            clauses,
            occ_start,
            occ,
        }
    }

    fn occurrences(&self, lit: u32) -> &[u32] {
        let l = lit as usize;
        &self.occ[self.occ_start[l] as usize..self.occ_start[l + 1] as usize]
    }

    /// One thread's share: random decisions with unit propagation until
    /// `VISITS` occurrence-list entries were visited; a conflict or a full
    /// assignment undoes every assignment. Returns a checksum so the work
    /// cannot be elided.
    fn propagate(&self, seed: u64) -> u64 {
        let mut rng = XorShift(seed | 1);
        // Per variable: 0 unassigned, 1 + sign of the true literal.
        let mut value = vec![0u8; VARS];
        // Per clause: how many of its literals are false.
        let mut falses = vec![0u8; CLAUSES];
        let mut trail: Vec<u32> = Vec::with_capacity(VARS);
        let mut visits = 0u64;
        let mut checksum = 0u64;
        while visits < VISITS {
            let var = (rng.next() % VARS as u64) as usize;
            if value[var] != 0 {
                continue;
            }
            let decision = var as u32 * 2 + (rng.next() & 1) as u32;
            value[var] = 1 + (decision & 1) as u8;
            let mut head = trail.len();
            trail.push(decision);
            let mut conflict = false;
            while head < trail.len() && !conflict {
                let falsified = trail[head] ^ 1;
                head += 1;
                for &ci in self.occurrences(falsified) {
                    visits += 1;
                    let ci = ci as usize;
                    falses[ci] += 1;
                    if falses[ci] < 2 {
                        continue;
                    }
                    let clause = self.clauses[ci];
                    if clause
                        .iter()
                        .any(|&l| value[(l >> 1) as usize] == 1 + (l & 1) as u8)
                    {
                        continue;
                    }
                    match clause.iter().find(|&&l| value[(l >> 1) as usize] == 0) {
                        Some(&unit) => {
                            value[(unit >> 1) as usize] = 1 + (unit & 1) as u8;
                            trail.push(unit);
                        }
                        None => conflict = true,
                    }
                }
            }
            checksum = checksum.wrapping_mul(31).wrapping_add(trail.len() as u64);
            if conflict || trail.len() == VARS {
                // The first `head` trail literals had their falsified
                // occurrences counted; take those counts back.
                for (i, &l) in trail.iter().enumerate() {
                    if i < head {
                        for &ci in self.occurrences(l ^ 1) {
                            falses[ci as usize] -= 1;
                        }
                    }
                    value[(l >> 1) as usize] = 0;
                }
                trail.clear();
            }
        }
        checksum
    }

    /// Runs one share on each of `threads` threads at once.
    pub fn time(&self, threads: usize) -> Timing {
        let threads = threads.max(1);
        let started = Instant::now();
        let cpu: f64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let cpu_before = thread_cpu_seconds();
                        black_box(self.propagate(0x9e37_79b9 + t as u64));
                        thread_cpu_seconds() - cpu_before
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference workload"))
                .sum()
        });
        let wall_s = started.elapsed().as_secs_f64();
        Timing {
            wall_s,
            // Without `/proc`, CPU seconds are taken to pass as wall does.
            cpu_s: if cpu > 0.0 {
                cpu / threads as f64
            } else {
                wall_s
            },
        }
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

/// CPU seconds the calling thread has run, from the nanosecond counter in
/// `/proc/thread-self/schedstat`; 0 where it is unreadable.
fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}
