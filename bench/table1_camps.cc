// Table 1: chip multiprocessor camp characteristics, printed from the
// actual CoreParams the simulator runs with (so the table cannot drift
// from the implementation).
#include <cstdio>
#include <string>

#include "common/table_printer.h"
#include "coresim/cmp.h"

using namespace stagedcmp;

int main() {
  const coresim::CoreParams fc = coresim::CoreParams::Fat();
  const coresim::CoreParams lc = coresim::CoreParams::Lean();

  TablePrinter table({"Core Technology", "Fat Camp (FC)", "Lean Camp (LC)"});
  table.AddRow({"Issue Width",
                "Wide (" + std::to_string(fc.issue_width) + ")",
                "Narrow (" + std::to_string(lc.issue_width) + ")"});
  table.AddRow({"Execution Order", "Out-of-order", "In-order"});
  table.AddRow({"Pipeline Depth (branch penalty)",
                "Deep (" + std::to_string(fc.branch_penalty) + " stages)",
                "Shallow (" + std::to_string(lc.branch_penalty) + " stages)"});
  table.AddRow({"Hardware Threads",
                "Few (" + std::to_string(fc.contexts) + ")",
                "Many (" + std::to_string(lc.contexts) + ")"});
  table.AddRow({"Core Size", "Large (3 x LC size)", "Small (LC size)"});
  table.AddRow({"Miss overlap (MLP factor)",
                TablePrinter::Num(fc.mlp, 1),
                TablePrinter::Num(lc.mlp, 1)});
  table.AddRow({"Computation IPC (per context)",
                TablePrinter::Num(fc.compute_ipc, 2),
                TablePrinter::Num(lc.compute_ipc, 2)});

  std::printf("\n=== Table 1: CMP camp characteristics ===\n");
  table.Print();
  return 0;
}
