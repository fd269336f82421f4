//! Fig 5: minimum / median / maximum input and output data sizes per
//! accelerator, measured over sampled service programs.

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_bench::table::Table;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::Frequency;
use accelflow_trace::kind::AccelKind;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::socialnetwork;

fn main() {
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
    let mut rng = SimRng::seed(17);
    let mut ins: Vec<Vec<u64>> = vec![Vec::new(); AccelKind::COUNT];
    let mut outs: Vec<Vec<u64>> = vec![Vec::new(); AccelKind::COUNT];
    for svc in socialnetwork::all() {
        for i in 0..800u64 {
            let p = svc.sample(&lib, &timing, &mut rng, i << 36);
            for hop in p.hops() {
                ins[hop.kind.id() as usize].push(hop.in_bytes);
                outs[hop.kind.id() as usize].push(hop.out_bytes);
            }
        }
    }
    let stats = |v: &mut Vec<u64>| {
        v.sort_unstable();
        if v.is_empty() {
            (0, 0, 0)
        } else {
            (v[0], v[v.len() / 2], v[v.len() - 1])
        }
    };
    let mut t = Table::new(
        "Fig 5: per-accelerator data sizes (bytes) -- LdB carries no processed payload",
        &[
            "accelerator",
            "in min",
            "in med",
            "in max",
            "out min",
            "out med",
            "out max",
        ],
    );
    for kind in AccelKind::ALL {
        if kind == AccelKind::Ldb {
            continue; // Fig 5 has no LdB bar
        }
        let (imin, imed, imax) = stats(&mut ins[kind.id() as usize]);
        let (omin, omed, omax) = stats(&mut outs[kind.id() as usize]);
        t.row(&[
            kind.to_string(),
            imin.to_string(),
            imed.to_string(),
            imax.to_string(),
            omin.to_string(),
            omed.to_string(),
            omax.to_string(),
        ]);
    }
    t.print();
    println!("paper: median sizes are a few KB with long tails to tens of KB (as also observed by Google).");
}
