//! CPU placement of the benchmark's threads.
//!
//! The whole process — generator, server acceptor and shard — runs on
//! one CPU. Left to the scheduler, the two ends of a request round trip
//! sometimes share a CPU and sometimes do not; on a 2-vCPU guest the two
//! cases differ by a third in request time (a cross-CPU wake-up goes
//! through the hypervisor), and a run's figure depended on how long it
//! spent in each. Pinning both ends apart was steady but slow and moved
//! with two CPUs' neighbours instead of one's; pinning them together
//! measures the work of both ends of the round trip, steadily.

/// `cpu_set_t` as glibc sizes it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and so every thread it spawns later — to
/// the lowest CPU it may run on. Call from the main thread before
/// spawning anything. Returns the CPU, or `None` if affinity could not
/// be read or set.
pub fn pin_to_first_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    (rc == 0).then_some(cpu)
}
