//! Confines the benchmark to one CPU.
//!
//! On the 2-vCPU reference host, wall time of anything that hands work
//! between threads is set by cross-CPU wake-up latency, and that varies by
//! half from one run to the next (see README.md, "How the bounds were
//! derived"). Pinned to one CPU, every hand-over is a plain context
//! switch and the same runs repeat within 2 %. So every workload measures
//! on one CPU: the numbers are the program's CPU cost per op, which is
//! what a change to the program can move.
//!
//! The one place that needs parallelism — the sharded-engine probe of the
//! traced run — lifts the confinement around itself with [`unpinned`].

use std::sync::OnceLock;

/// The affinity mask the process had before [`pin_to_one_cpu`].
static ORIGINAL: OnceLock<imp::Mask> = OnceLock::new();

/// Pins the calling thread (and every thread it spawns from now on) to
/// the lowest-numbered CPU it is allowed on. Returns whether it did;
/// where affinity is not supported the run goes on unpinned.
pub fn pin_to_one_cpu() -> bool {
    let Some(original) = imp::get() else {
        return false;
    };
    let Some(first) = imp::first_cpu(&original) else {
        return false;
    };
    let pinned = imp::set(&imp::single(first));
    if pinned {
        ORIGINAL.get_or_init(|| original);
    }
    pinned
}

/// Runs `f` with the pre-pinning mask restored, so the threads `f` spawns
/// may use every CPU, then pins again. Just runs `f` if nothing is pinned.
pub fn unpinned<R>(f: impl FnOnce() -> R) -> R {
    let (Some(original), Some(pinned)) = (ORIGINAL.get(), imp::get()) else {
        return f();
    };
    imp::set(original);
    let out = f();
    imp::set(&pinned);
    out
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `size_of::<Mask>()` bytes passed as its size; pid 0 is the
        // calling thread. The call writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the
        // `size_of::<Mask>()` bytes passed as its size, only read by the
        // call; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn first_cpu(mask: &Mask) -> Option<usize> {
        mask.iter()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
    }

    pub fn single(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub type Mask = ();

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }

    pub fn first_cpu(_: &Mask) -> Option<usize> {
        None
    }

    pub fn single(_: usize) -> Mask {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_unpinned_widens_back() {
        // A thread of its own: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = imp::get().expect("affinity is readable on Linux");
            assert!(pin_to_one_cpu());
            let pinned = imp::get().unwrap();
            assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(imp::first_cpu(&pinned), imp::first_cpu(&before));
            let inside = unpinned(|| imp::get().unwrap());
            assert_eq!(inside, before);
            assert_eq!(imp::get().unwrap(), pinned);
            // Spawned threads inherit the pin.
            let child = std::thread::spawn(|| imp::get().unwrap()).join().unwrap();
            assert_eq!(child, pinned);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn masks_address_every_cpu() {
        assert_eq!(imp::first_cpu(&imp::single(0)), Some(0));
        assert_eq!(imp::first_cpu(&imp::single(63)), Some(63));
        assert_eq!(imp::first_cpu(&imp::single(64)), Some(64));
        assert_eq!(imp::first_cpu(&imp::single(1023)), Some(1023));
        assert_eq!(imp::first_cpu(&[0; 16]), None);
    }
}
