//! Correctness checks written against the raw outputs, independent of the
//! verdict fields the library's own reports carry.

use amo_sim::Execution;

/// A failed check: which workload, which check, and what was seen.
#[derive(Debug)]
pub struct CheckFailure {
    pub workload: &'static str,
    pub check: &'static str,
    pub detail: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload {}: check {} failed: {}",
            self.workload, self.check, self.detail
        )
    }
}

pub type Checked<T> = Result<T, CheckFailure>;

fn fail<T>(workload: &'static str, check: &'static str, detail: String) -> Checked<T> {
    Err(CheckFailure {
        workload,
        check,
        detail,
    })
}

/// At-most-once and Theorem 4.4 on one KKβ execution: every performed job
/// id lies in `1..=n` and appears once, every surviving process terminated,
/// and at least `n − (β + m − 2)` distinct jobs were performed. Returns the
/// number of distinct jobs.
pub fn kk_execution(
    workload: &'static str,
    exec: &Execution,
    n: u64,
    m: u64,
    beta: u64,
) -> Checked<u64> {
    if !exec.completed {
        return fail(
            workload,
            "termination",
            format!("run stopped after {} actions", exec.total_steps),
        );
    }
    let mut seen = vec![0u64; usize::try_from(n.div_ceil(64)).expect("n fits usize")];
    let mut distinct = 0u64;
    for record in &exec.performed {
        for job in record.span.lo..=record.span.hi {
            if job == 0 || job > n {
                return fail(
                    workload,
                    "job-range",
                    format!("pid {} performed job {job} outside 1..={n}", record.pid),
                );
            }
            let (word, bit) = (((job - 1) / 64) as usize, (job - 1) % 64);
            if seen[word] >> bit & 1 == 1 {
                return fail(
                    workload,
                    "at-most-once",
                    format!("job {job} performed twice (again by pid {})", record.pid),
                );
            }
            seen[word] |= 1 << bit;
            distinct += 1;
        }
    }
    let bound = n.saturating_sub(beta + m - 2);
    if distinct < bound {
        return fail(
            workload,
            "effectiveness-bound",
            format!("{distinct} distinct jobs < n - (beta + m - 2) = {bound}"),
        );
    }
    Ok(distinct)
}

/// Write-All completeness: every array cell holds a nonzero value.
pub fn write_all_cells(workload: &'static str, array: &[u64]) -> Checked<()> {
    match array.iter().position(|&v| v == 0) {
        None => Ok(()),
        Some(i) => fail(
            workload,
            "write-all-complete",
            format!(
                "cell {} of {} never written ({} unwritten)",
                i + 1,
                array.len(),
                array.iter().filter(|&&v| v == 0).count()
            ),
        ),
    }
}

/// The claim service's client-side ledger: every granted job id is new.
/// Ids are dense (generation · n + job), so a bitmap holds them in a bit
/// each and adds little to the service's own memory.
#[derive(Default)]
pub struct GrantLedger {
    words: Vec<u64>,
    granted: u64,
}

impl GrantLedger {
    /// Records one grant, failing on a job granted before.
    pub fn record(&mut self, workload: &'static str, job: u64) -> Checked<()> {
        let word = usize::try_from(job / 64).expect("job id fits usize");
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1 << (job % 64);
        if self.words[word] & bit != 0 {
            return fail(workload, "grant-unique", format!("job {job} granted twice"));
        }
        self.words[word] |= bit;
        self.granted += 1;
        Ok(())
    }

    /// Grants recorded.
    pub fn len(&self) -> u64 {
        self.granted
    }
}

/// Two executions of one input must be equal field for field.
pub fn same_execution(
    workload: &'static str,
    untraced: &Execution,
    traced: &Execution,
) -> Checked<()> {
    if untraced == traced {
        return Ok(());
    }
    let detail = if untraced.performed != traced.performed {
        let at = untraced
            .performed
            .iter()
            .zip(&traced.performed)
            .position(|(a, b)| a != b)
            .unwrap_or(untraced.performed.len().min(traced.performed.len()));
        format!(
            "perform records differ from record {at} ({} vs {} records)",
            untraced.performed.len(),
            traced.performed.len()
        )
    } else {
        format!(
            "total_steps {} vs {}, mem_work {:?} vs {:?}, local_work {} vs {}",
            untraced.total_steps,
            traced.total_steps,
            untraced.mem_work,
            traced.mem_work,
            untraced.local_work,
            traced.local_work
        )
    };
    fail(workload, "trace-transparent", detail)
}

/// A check on a condition the caller computed.
pub fn ensure(
    workload: &'static str,
    check: &'static str,
    ok: bool,
    detail: impl FnOnce() -> String,
) -> Checked<()> {
    if ok {
        Ok(())
    } else {
        fail(workload, check, detail())
    }
}
