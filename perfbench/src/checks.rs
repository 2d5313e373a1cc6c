//! Output checks shared by the workloads, kept pure so the tests can feed
//! them wrong inputs.

use svc::DigestGroup;

/// Whether a virtual time in seconds prints as `golden` at its precision
/// (nine decimals, as the committed artifacts print them).
pub fn matches_golden(seconds: f64, golden: &str) -> bool {
    format!("{seconds:.9}") == golden
}

/// Every rung must inject the same NIC bytes per op (the `overlap
/// --validate` pin). Returns that byte count.
pub fn same_nic_bytes(per_rung: &[(&str, u64)]) -> Result<u64, String> {
    let Some(&(_, first)) = per_rung.first() else {
        return Err("no rungs measured".into());
    };
    if per_rung.iter().all(|&(_, b)| b == first) {
        Ok(first)
    } else {
        Err(format!(
            "NIC bytes per op differ across rungs: {per_rung:?}"
        ))
    }
}

/// Jobs sharing a workload digest must commit bit-identical results.
/// Returns one problem per diverging group and the number of completed
/// jobs those groups hold.
pub fn digest_groups(groups: &[DigestGroup]) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    let mut jobs = 0;
    for g in groups.iter().filter(|g| !g.bit_identical()) {
        let done = g.completed();
        jobs += done.len() as u64;
        problems.push(format!(
            "digest {} ({} jobs) is not bit-identical: elapsed {:?}",
            g.digest,
            done.len(),
            done.iter()
                .map(|r| r.elapsed_virtual_ps)
                .collect::<Vec<_>>()
        ));
    }
    (problems, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc::{ClusterPreset, JobResult, JobSpec, JobStatus};

    fn result(elapsed_ps: u64, per_iter: f64) -> JobResult {
        let spec = JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 6, [64; 3]);
        JobResult {
            schema_version: detsim::SCHEMA_VERSION,
            job_id: 1,
            tenant: "t".into(),
            digest: spec.digest(),
            status: JobStatus::Completed,
            error: None,
            queue_ms: 0.5,
            run_ms: 2.0,
            total_ms: 2.5,
            per_iter_s: vec![per_iter],
            mean_s: per_iter,
            elapsed_virtual_ps: elapsed_ps,
            spec,
            metrics_json: None,
        }
    }

    #[test]
    fn wrong_nic_bytes_fail() {
        assert_eq!(
            same_nic_bytes(&[("staged", 10), ("persistent", 10)]),
            Ok(10)
        );
        let err = same_nic_bytes(&[("staged", 10), ("persistent", 10), ("partitioned", 11)])
            .expect_err("a rung moving other bytes must fail");
        assert!(err.contains("partitioned"), "{err}");
        assert!(same_nic_bytes(&[]).is_err());
    }

    #[test]
    fn non_identical_digest_group_fails() {
        let same = DigestGroup {
            digest: "a".into(),
            results: vec![result(100, 1e-3), result(100, 1e-3)],
        };
        assert_eq!(digest_groups(std::slice::from_ref(&same)), (Vec::new(), 0));
        let mut other = result(100, 1e-3);
        other.per_iter_s[0] = f64::from_bits(other.per_iter_s[0].to_bits() + 1);
        let split = DigestGroup {
            digest: "b".into(),
            results: vec![result(100, 1e-3), other, result(100, 1e-3)],
        };
        let (problems, jobs) = digest_groups(&[same, split]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("digest b"));
        assert_eq!(jobs, 3);
    }

    #[test]
    fn golden_match_is_at_printed_precision() {
        assert!(matches_golden(0.016363541, "0.016363541"));
        assert!(matches_golden(0.0163635414, "0.016363541"));
        assert!(!matches_golden(0.016363551, "0.016363541"));
    }
}
