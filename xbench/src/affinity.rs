//! Pins the benchmark process to one CPU.
//!
//! Every workload is a closed loop with one request in flight, so no two
//! of its threads ever have work at the same time — but where the guest
//! scheduler puts client, event loop and worker decides whether each
//! hand-off is a context switch or a wake-up of an idle virtual CPU. On
//! the 2-vCPU box this benchmark was sized on, `serve_hot` ran at
//! ~45 000 q/s while the three threads shared a CPU and dropped to
//! ~8 000 q/s about two seconds in, when the scheduler spread them out,
//! and stayed there. Pinned, it is one regime from the first request to
//! the last, and what is measured is the CPU cost of the path.

/// `cpu_set_t`: 1024 bits.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU it is currently allowed on. Returns that
/// CPU's number.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the kernel is told it may fill; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu =
        highest_set_bit(&mask).ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes that the kernel only
    // reads; pid 0 is the caller.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Other platforms have no such call; the server's event loop is
/// Linux-only too, so the benchmark does not run there.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "CPU pinning needs Linux",
    ))
}

fn highest_set_bit(mask: &[u64; MASK_WORDS]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_highest_allowed_cpu() {
        let mut mask = [0u64; MASK_WORDS];
        assert_eq!(highest_set_bit(&mask), None);
        mask[0] = 0b0011;
        assert_eq!(highest_set_bit(&mask), Some(1));
        mask[2] = 1 << 5;
        assert_eq!(highest_set_bit(&mask), Some(133));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_exactly_one_cpu_and_spawned_threads_inherit_it() {
        // On its own thread: the test harness's other threads keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap();
            let allowed = |_: ()| {
                let mut mask = [0u64; MASK_WORDS];
                // SAFETY: as in `pin_to_one_cpu`.
                let rc = unsafe {
                    sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
                };
                assert_eq!(rc, 0);
                mask
            };
            let mut expected = [0u64; MASK_WORDS];
            expected[cpu / 64] = 1 << (cpu % 64);
            assert_eq!(allowed(()), expected);
            let child = std::thread::spawn(move || allowed(())).join().unwrap();
            assert_eq!(child, expected);
        })
        .join()
        .unwrap();
    }
}
