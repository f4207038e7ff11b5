//! Machine parameters (Table 1 of the paper).
//!
//! The paper quotes round-trip remote access latencies and local access
//! times in machine cycles:
//!
//! | machine | remote | local |
//! |---------|--------|-------|
//! | CM-5    | 400    | 30    |
//! | T3D     | 85     | 23    |
//! | DASH    | 110    | 26    |
//!
//! The simulator decomposes the round trip into
//! `send_overhead + network_latency + handler + network_latency +
//! recv_overhead`; the presets below reproduce the Table 1 totals exactly
//! (see [`MachineConfig::remote_round_trip`] and the tests).

/// Parameters of the simulated distributed-memory multiprocessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Human-readable machine name.
    pub name: String,
    /// Number of processors.
    pub procs: u32,
    /// Cycles for a blocking access to the local memory module.
    pub local_access_cycles: u64,
    /// Issuer CPU cycles to inject a message into the network.
    pub send_overhead: u64,
    /// Issuer CPU cycles to consume a data reply.
    pub recv_overhead: u64,
    /// One-way wire latency between any two processors.
    pub network_latency: u64,
    /// Owner-side cycles to service a request (read memory / apply write).
    pub handler_cycles: u64,
    /// Extra owner cycles to generate an acknowledgement, plus issuer
    /// cycles stolen when the ack arrives (two-way puts pay this twice;
    /// one-way stores never do).
    pub ack_cycles: u64,
    /// Cycles a barrier costs after the rendezvous (combine/broadcast).
    pub barrier_cycles: u64,
    /// Cycles per local compute instruction (assignments, address math).
    pub local_op_cycles: u64,
    /// Minimum spacing between two message *injections* by one processor
    /// (NIC serialization). `0` models an infinitely fast injection port;
    /// the CM-5's network interface could not keep two packets per
    /// `send_overhead`, so bursts of puts/stores serialize at this rate
    /// beyond the CPU overhead already charged.
    pub injection_gap_cycles: u64,
    /// Upper bound on executed instructions per processor (runaway guard).
    pub max_steps: u64,
    /// Verify at runtime that all processors execute the same barrier
    /// sequence (the paper's §5.2 dynamic check).
    pub check_barrier_alignment: bool,
}

impl MachineConfig {
    /// A 64-processor Thinking Machines CM-5 (the paper's testbed).
    pub fn cm5(procs: u32) -> Self {
        MachineConfig {
            name: "CM-5".to_string(),
            procs,
            local_access_cycles: 30,
            send_overhead: 25,
            recv_overhead: 25,
            network_latency: 160,
            handler_cycles: 30,
            ack_cycles: 15,
            barrier_cycles: 125,
            local_op_cycles: 2,
            injection_gap_cycles: 8,
            max_steps: 200_000_000,
            check_barrier_alignment: true,
        }
    }

    /// A Cray T3D (low-overhead remote access).
    pub fn t3d(procs: u32) -> Self {
        MachineConfig {
            name: "T3D".to_string(),
            procs,
            local_access_cycles: 23,
            send_overhead: 7,
            recv_overhead: 7,
            network_latency: 24,
            handler_cycles: 23,
            ack_cycles: 5,
            barrier_cycles: 40,
            local_op_cycles: 2,
            injection_gap_cycles: 2,
            max_steps: 200_000_000,
            check_barrier_alignment: true,
        }
    }

    /// A Stanford DASH (hardware cache coherence; we model its remote
    /// fill latency).
    pub fn dash(procs: u32) -> Self {
        MachineConfig {
            name: "DASH".to_string(),
            procs,
            local_access_cycles: 26,
            send_overhead: 12,
            recv_overhead: 12,
            network_latency: 30,
            handler_cycles: 26,
            ack_cycles: 8,
            barrier_cycles: 60,
            local_op_cycles: 2,
            injection_gap_cycles: 3,
            max_steps: 200_000_000,
            check_barrier_alignment: true,
        }
    }

    /// The modeled round-trip cost of a blocking remote access — must
    /// match the paper's Table 1 "Remote Access" row.
    pub fn remote_round_trip(&self) -> u64 {
        self.send_overhead
            + self.network_latency
            + self.handler_cycles
            + self.network_latency
            + self.recv_overhead
    }

    /// Everything a simulation result can depend on, as the parts of a
    /// content-addressed cache key: the name, then every other field in
    /// declaration order (`check_barrier_alignment` as 0 or 1). The
    /// destructuring names each field, so adding one without deciding how
    /// it enters the key does not compile.
    pub fn cache_key_parts(&self) -> (&str, [u64; 12]) {
        let MachineConfig {
            name,
            procs,
            local_access_cycles,
            send_overhead,
            recv_overhead,
            network_latency,
            handler_cycles,
            ack_cycles,
            barrier_cycles,
            local_op_cycles,
            injection_gap_cycles,
            max_steps,
            check_barrier_alignment,
        } = self;
        (
            name,
            [
                u64::from(*procs),
                *local_access_cycles,
                *send_overhead,
                *recv_overhead,
                *network_latency,
                *handler_cycles,
                *ack_cycles,
                *barrier_cycles,
                *local_op_cycles,
                *injection_gap_cycles,
                *max_steps,
                u64::from(*check_barrier_alignment),
            ],
        )
    }

    /// All three Table 1 presets with the given processor count.
    pub fn table1(procs: u32) -> Vec<MachineConfig> {
        vec![Self::cm5(procs), Self::t3d(procs), Self::dash(procs)]
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::cm5(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_round_trips_match_paper() {
        assert_eq!(MachineConfig::cm5(64).remote_round_trip(), 400);
        assert_eq!(MachineConfig::t3d(64).remote_round_trip(), 85);
        assert_eq!(MachineConfig::dash(64).remote_round_trip(), 110);
    }

    #[test]
    fn table1_local_accesses_match_paper() {
        assert_eq!(MachineConfig::cm5(64).local_access_cycles, 30);
        assert_eq!(MachineConfig::t3d(64).local_access_cycles, 23);
        assert_eq!(MachineConfig::dash(64).local_access_cycles, 26);
    }

    #[test]
    fn presets_cover_all_three_machines() {
        let names: Vec<String> = MachineConfig::table1(8)
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(names, ["CM-5", "T3D", "DASH"]);
    }

    #[test]
    fn default_is_paper_testbed() {
        let c = MachineConfig::default();
        assert_eq!(c.name, "CM-5");
        assert_eq!(c.procs, 64);
    }
}
