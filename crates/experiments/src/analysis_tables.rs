//! The worked analytical examples of Section 5, reproduced as tables.
//!
//! * the `vprfh ≈ 469 mph` prefetch-speed estimate (Section 5.2),
//! * the storage-cost example — 4 trees ahead under JIT versus ~58 under
//!   greedy prefetching (Equations 11–13),
//! * the contention example — about 4 interfering trees under JIT versus 35
//!   under greedy, and the speed threshold `v* ≈ 131 mph` (Section 5.4),
//! * the warm-up bound of Equation 16 for a range of advance times.

use crate::Report;
use mobiquery::analysis::{
    contention_speed_threshold_mps, interference_length_greedy, interference_length_jit,
    interference_length_jit_n, paper_prefetch_speed_mph, prefetch_length_greedy,
    prefetch_length_jit, shared_interference_length_jit, storage_crossover_lifetime_s,
    warmup_interval_approx_s, warmup_interval_s, AnalysisParams,
};
use wsn_geom::mps_to_mph;
use wsn_metrics::{JsonValue, Table};

/// The Section 5.2 storage-cost example as a table.
pub fn storage_table() -> Table {
    let p = AnalysisParams::storage_example();
    let mut t = Table::with_columns(
        "Section 5.2: worst-case prefetch length (storage cost)",
        &["quantity", "value"],
    );
    t.push_row(vec![
        "prefetch speed vprfh (mph)".into(),
        format!("{:.1}", paper_prefetch_speed_mph()),
    ]);
    t.push_row(vec![
        "PL_jit (Eq. 12)".into(),
        prefetch_length_jit(&p).to_string(),
    ]);
    t.push_row(vec![
        "PL_gp (Eq. 11)".into(),
        prefetch_length_greedy(&p).to_string(),
    ]);
    t.push_row(vec![
        "storage ratio gp/jit".into(),
        format!(
            "{:.1}",
            prefetch_length_greedy(&p) as f64 / prefetch_length_jit(&p) as f64
        ),
    ]);
    t.push_row(vec![
        "crossover lifetime Td (Eq. 13, s)".into(),
        format!("{:.1}", storage_crossover_lifetime_s(&p)),
    ]);
    t
}

/// The Section 5.4 contention example as a table.
pub fn contention_table() -> Table {
    let p = AnalysisParams::contention_example();
    let mut t = Table::with_columns(
        "Section 5.4: interference length (network contention)",
        &["quantity", "value"],
    );
    t.push_row(vec![
        "M_jit (interfering trees, JIT)".into(),
        interference_length_jit(&p).to_string(),
    ]);
    t.push_row(vec![
        "M_gp (interfering trees, greedy)".into(),
        interference_length_greedy(&p).to_string(),
    ]);
    t.push_row(vec![
        "v* speed threshold (mph)".into(),
        format!("{:.1}", mps_to_mph(contention_speed_threshold_mps(&p))),
    ]);
    t
}

/// The Equation 16 warm-up bound for a sweep of advance times, using the
/// paper's evaluation parameters (Tperiod 2 s, Tfresh 1 s, sleep 9 s).
pub fn warmup_table() -> Table {
    let p = AnalysisParams {
        period_s: 2.0,
        freshness_s: 1.0,
        sleep_s: 9.0,
        lifetime_s: 500.0,
        user_speed_mps: 4.0,
        prefetch_speed_mps: 200.0,
        query_radius_m: 150.0,
        comm_range_m: 105.0,
    };
    let mut t = Table::with_columns(
        "Section 5.3: warm-up interval bound (Eq. 16), sleep 9 s",
        &["advance time Ta (s)", "Tw exact (s)", "Tw approx (s)"],
    );
    for ta in [-8.0, -6.0, -3.0, 0.0, 6.0, 12.0, 18.0] {
        t.push_row(vec![
            format!("{ta}"),
            format!("{:.1}", warmup_interval_s(&p, ta)),
            format!("{:.1}", warmup_interval_approx_s(&p, ta)),
        ]);
    }
    t
}

/// The N-user extension of the Section 5.4 contention example: interfering
/// JIT trees for a fleet of co-located users, one tree per user (naive)
/// versus multiplexed through the shared tree cache.
pub fn multiuser_contention_table() -> Table {
    let p = AnalysisParams::contention_example();
    let mut t = Table::with_columns(
        "Section 5.4 (N users): interfering JIT trees, naive vs shared cache",
        &["users", "M_jit naive", "M_jit shared"],
    );
    for n in [1u64, 10, 100] {
        t.push_row(vec![
            n.to_string(),
            interference_length_jit_n(&p, n).to_string(),
            shared_interference_length_jit(&p).to_string(),
        ]);
    }
    t
}

/// All analytical tables, in presentation order, as text and as a JSON
/// array. They are closed forms (no simulation).
pub fn run() -> Report {
    let tables = [
        storage_table(),
        contention_table(),
        multiuser_contention_table(),
        warmup_table(),
    ];
    Report {
        text: tables.iter().map(|table| format!("{table}\n")).collect(),
        json: JsonValue::Array(tables.iter().map(Table::to_json).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table's compact JSON, where each row reads `["cell",…]`.
    fn json(table: &Table) -> String {
        table.to_json().to_string()
    }

    #[test]
    fn tables_contain_the_papers_headline_numbers() {
        let storage = json(&storage_table());
        assert!(storage.contains(r#"["PL_jit (Eq. 12)","4"]"#));
        let contention = json(&contention_table());
        // v* ≈ 131 mph appears in the table.
        assert!(contention.contains("v*"));
        let JsonValue::Array(tables) = run().json else {
            panic!("the analysis JSON must be an array of tables");
        };
        assert_eq!(tables.len(), 4);
    }

    #[test]
    fn multiuser_contention_table_pins_the_shared_advantage() {
        let table = json(&multiuser_contention_table());
        // Naive interference scales with the fleet; the shared cache stays
        // at the single-user Mjit = 3 whatever n is.
        assert!(
            table.contains(r#"["100","300","3"]"#),
            "unexpected table: {table}"
        );
        assert!(table.contains(r#"["1","3","3"]"#));
    }

    #[test]
    fn warmup_table_has_a_row_per_advance_time() {
        // Title, header and separator, then one line per row.
        assert_eq!(format!("{}", warmup_table()).lines().count(), 3 + 7);
    }
}
