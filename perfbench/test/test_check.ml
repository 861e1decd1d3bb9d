(* The benchmark's output checker on a hand-built design: one accepted
   placement, and one rejected placement for each violation kind. *)

open Mclh_circuit

(* 4 rows x 20 sites, base rail Vss. Cells: 0 and 1 single height (widths
   3 and 2), 2 double height with a Vss bottom rail (width 2), so it fits
   rows 0 and 2 only. One blockage covers sites 16..19 of rows 2..3. *)
let design =
  let chip = Chip.make ~row_height:8.0 ~num_rows:4 ~num_sites:20 () in
  let cells =
    [| Cell.make ~id:0 ~width:3 ~height:1 ();
       Cell.make ~id:1 ~width:2 ~height:1 ();
       Cell.make ~id:2 ~width:2 ~height:2 ~bottom_rail:Rail.Vss () |]
  in
  let nets =
    Netlist.make ~num_cells:3
      [ [| { Netlist.cell = 0; dx = 1.0; dy = 0.5 };
           { Netlist.cell = 1; dx = 0.0; dy = 0.5 } |];
        [| { Netlist.cell = 1; dx = 1.0; dy = 0.0 };
           { Netlist.cell = 2; dx = 0.5; dy = 1.5 } |];
        [| { Netlist.cell = 2; dx = 0.0; dy = 0.0 } |] ]
  in
  let global = Placement.make ~xs:[| 1.2; 6.7; 9.9 |] ~ys:[| 0.3; 1.1; 1.6 |] in
  Design.make
    ~blockages:[| Blockage.make ~row:2 ~height:2 ~x:16 ~width:4 |]
    ~name:"tiny" ~chip ~cells ~global ~nets ()

let legal () = Placement.make ~xs:[| 0.0; 3.0; 5.0 |] ~ys:[| 1.0; 1.0; 2.0 |]

let with_cell i x y =
  let pl = Placement.copy (legal ()) in
  Placement.set pl i ~x ~y;
  pl

let kinds pl = List.map Perfcheck.kind (Perfcheck.violations design pl)

let rejects name expected pl =
  Alcotest.test_case name `Quick (fun () ->
      let got = kinds pl in
      Alcotest.(check bool)
        (Printf.sprintf "%s reported (got [%s])" expected
           (String.concat "; " got))
        true (List.mem expected got))

let accepts_legal () =
  Alcotest.(check (list string)) "no violations" [] (kinds (legal ()))

let accepts_touching () =
  (* abutting cells and a cell abutting the blockage are legal *)
  let pl = Placement.make ~xs:[| 0.0; 3.0; 14.0 |] ~ys:[| 0.0; 0.0; 2.0 |] in
  Alcotest.(check (list string)) "no violations" [] (kinds pl)

let overlap_pair_once () =
  (* a double-height cell overlapping a single-height one on two rows'
     worth of span is still one pair *)
  let pl = Placement.make ~xs:[| 0.0; 3.0; 1.0 |] ~ys:[| 2.0; 1.0; 2.0 |] in
  Alcotest.(check (list string)) "one overlap" [ "cell_overlap" ] (kinds pl)

let overlapping_cells () =
  (* fractional global placement: 0 and 1 overlap, 2 is clear *)
  let pl = Placement.make ~xs:[| 0.5; 2.9; 10.0 |] ~ys:[| 0.2; 0.9; 1.5 |] in
  Alcotest.(check int) "two overlapping cells" 2
    (Perfcheck.overlapping_cells design pl);
  let apart = Placement.make ~xs:[| 0.5; 3.5; 10.0 |] ~ys:[| 0.2; 0.9; 1.5 |] in
  Alcotest.(check int) "none" 0 (Perfcheck.overlapping_cells design apart)

let hpwl_by_hand () =
  let pl = legal () in
  (* net 0: pins (1, 1.5), (3, 1.5): 2. net 1: pins (4, 1), (5.5, 3.5):
     1.5 + 8 * 2.5 = 21.5. net 2: one pin, 0. *)
  Alcotest.(check (float 1e-12)) "hpwl" 23.5 (Perfcheck.hpwl design pl);
  Alcotest.(check bool) "agrees with Hpwl.total" true
    (Perfcheck.rel_close (Perfcheck.hpwl design pl)
       (Hpwl.total ~row_height:8.0 design.nets pl))

let displacement_by_hand () =
  let before = design.global and after = legal () in
  let d = Perfcheck.displacement design ~before after in
  (* |dx| + 8 |dy| per cell: 1.2 + 5.6, 3.7 + 0.8, 4.9 + 3.2 *)
  Alcotest.(check (float 1e-9)) "total" 19.4 d.Perfcheck.total;
  Alcotest.(check (float 1e-9)) "max" 8.1 d.Perfcheck.max;
  let m = Metrics.displacement ~row_height:8.0 ~before after in
  Alcotest.(check bool) "agrees with Metrics.displacement" true
    (Perfcheck.rel_close d.Perfcheck.total m.Metrics.total_manhattan)

let () =
  Alcotest.run "perfcheck"
    [ ( "accepted",
        [ Alcotest.test_case "legal placement" `Quick accepts_legal;
          Alcotest.test_case "abutting cells" `Quick accepts_touching;
          Alcotest.test_case "overlap pair reported once" `Quick
            overlap_pair_once ] );
      ( "rejected",
        [ rejects "unplaced (nan)" "unplaced" (with_cell 1 Float.nan 1.0);
          rejects "unplaced (short placement)" "unplaced"
            (Placement.make ~xs:[| 0.0; 3.0 |] ~ys:[| 1.0; 1.0 |]);
          rejects "off site" "off_site" (with_cell 1 3.5 1.0);
          rejects "off row" "off_row" (with_cell 1 3.0 1.25);
          rejects "out of chip (right)" "out_of_chip" (with_cell 1 19.0 1.0);
          rejects "out of chip (left)" "out_of_chip" (with_cell 1 (-1.0) 1.0);
          rejects "out of chip (top)" "out_of_chip" (with_cell 2 5.0 3.0);
          rejects "rail parity" "rail" (with_cell 2 5.0 1.0);
          rejects "cell overlap" "cell_overlap" (with_cell 1 2.0 1.0);
          rejects "blockage overlap" "blockage_overlap" (with_cell 2 15.0 2.0)
        ] );
      ( "measures",
        [ Alcotest.test_case "overlapping cells" `Quick overlapping_cells;
          Alcotest.test_case "hpwl" `Quick hpwl_by_hand;
          Alcotest.test_case "displacement" `Quick displacement_by_hand ] ) ]
