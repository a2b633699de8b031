//! Host-speed calibration.
//!
//! On a shared host, other tenants change how fast the same code runs
//! by 20–40%, for stretches from a second to minutes, in CPU time as
//! well as wall time. Every timed pass is therefore bracketed by a fixed
//! calibration kernel on each worker, and the pass's host times are
//! scaled by `REFERENCE_MS / kernel_ms`: they read as times on a host
//! where the kernel takes [`REFERENCE_MS`]. The kernel is this crate's
//! own code, so no change to the pipeline changes it.

use std::time::Instant;

/// The kernel's time on the reference host, in ms (a 2-vCPU Xeon VM).
pub const REFERENCE_MS: f64 = 3.0;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One run of the kernel, in ms: a small register-machine interpreter
/// over a fixed pseudo-random program, with a 512 KiB memory and
/// allocation churn — the same mix of indirect branches, cache traffic
/// and allocator work as the pipeline's interpreters and compiler.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x0ddb_a11c_afe5_eed5u64;
    let code: Vec<[u8; 4]> = (0..4096)
        .map(|_| {
            let r = xorshift(&mut x);
            [
                r as u8,
                (r >> 8) as u8 & 63,
                (r >> 16) as u8 & 63,
                (r >> 24) as u8,
            ]
        })
        .collect();
    let mut regs = [1u64; 64];
    let mut mem = vec![0u64; 1 << 16];
    let mut live: Vec<Vec<u64>> = Vec::new();
    let mut pc = 0usize;
    for _ in 0..150_000u32 {
        let [op, a, b, c] = code[pc];
        let (a, b, c) = (a as usize, b as usize, c as usize);
        pc = (pc + 1) & 4095;
        match op & 7 {
            0 => regs[a] = regs[b].wrapping_add(regs[c & 63]),
            1 => regs[a] = regs[b] ^ (regs[c & 63] << 1),
            2 => regs[a] = mem[regs[b] as usize & 0xffff],
            3 => mem[regs[b] as usize & 0xffff] = regs[a],
            4 => {
                if regs[b] & 1 == 0 {
                    pc = (pc + c) & 4095;
                }
            }
            5 => regs[a] = regs[b].wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            6 => {
                live.push(vec![regs[b]; 4 + (c & 31)]);
                if live.len() > 64 {
                    live.swap_remove(regs[a] as usize % 64);
                }
            }
            _ => regs[a] = regs[b].rotate_left(c as u32),
        }
    }
    std::hint::black_box((&regs, &mem, &live));
    t.elapsed().as_secs_f64() * 1e3
}

/// The median kernel time, in ms, over one run of the kernel on each of
/// `jobs` workers at the same time.
pub fn kernel_ms_on(jobs: usize) -> f64 {
    let times = gmt_testkit::par_map(vec![(); jobs], jobs, |_, ()| kernel_ms());
    crate::stats::median(&times).expect("at least one worker")
}
