open Mclh_circuit

type violation =
  | Unplaced of int
  | Off_site of int
  | Off_row of int
  | Out_of_chip of int
  | Rail of int
  | Cell_overlap of int * int
  | Blockage_overlap of int * int

let kind = function
  | Unplaced _ -> "unplaced"
  | Off_site _ -> "off_site"
  | Off_row _ -> "off_row"
  | Out_of_chip _ -> "out_of_chip"
  | Rail _ -> "rail"
  | Cell_overlap _ -> "cell_overlap"
  | Blockage_overlap _ -> "blockage_overlap"

let to_string v =
  match v with
  | Unplaced c | Off_site c | Off_row c | Out_of_chip c | Rail c ->
    Printf.sprintf "%s cell %d" (kind v) c
  | Cell_overlap (a, b) -> Printf.sprintf "%s cells %d %d" (kind v) a b
  | Blockage_overlap (c, b) ->
    Printf.sprintf "%s cell %d blockage %d" (kind v) c b

let placed (pl : Placement.t) i =
  i < Array.length pl.xs
  && i < Array.length pl.ys
  && Float.is_finite pl.xs.(i)
  && Float.is_finite pl.ys.(i)

(* A rectangle in the overlap sweep: [id >= 0] is a cell, [id < 0] the
   blockage [-id - 1]. *)
type rect = { id : int; x0 : float; x1 : float; y0 : float; y1 : float }

let rects (d : Design.t) (pl : Placement.t) =
  let cells =
    Array.to_list d.cells
    |> List.filter_map (fun (c : Cell.t) ->
           if placed pl c.id then
             let x = pl.xs.(c.id) and y = pl.ys.(c.id) in
             Some
               { id = c.id;
                 x0 = x;
                 x1 = x +. float_of_int c.width;
                 y0 = y;
                 y1 = y +. float_of_int c.height }
           else None)
  in
  let blocks =
    Array.to_list
      (Array.mapi
         (fun k (b : Blockage.t) ->
           { id = -k - 1;
             x0 = float_of_int b.x;
             x1 = float_of_int (b.x + b.width);
             y0 = float_of_int b.row;
             y1 = float_of_int (b.row + b.height) })
         d.blockages)
  in
  cells @ blocks

(* Calls [f a b] once per unordered pair of rectangles overlapping with
   positive area. Rectangles are bucketed by every row they touch and each
   row is swept left to right; a pair sharing several rows is reported on
   the lowest one only. *)
let iter_overlaps (d : Design.t) pl f =
  let rows = d.chip.num_rows in
  let buckets = Array.make rows [] in
  let first_row r = max 0 (int_of_float (Float.floor r.y0)) in
  List.iter
    (fun r ->
      let last = min (rows - 1) (int_of_float (Float.ceil r.y1) - 1) in
      for row = first_row r to last do
        buckets.(row) <- r :: buckets.(row)
      done)
    (rects d pl);
  Array.iteri
    (fun row bucket ->
      let sorted =
        List.sort (fun a b -> compare (a.x0, a.id) (b.x0, b.id)) bucket
      in
      let active = ref [] in
      List.iter
        (fun r ->
          active := List.filter (fun a -> a.x1 > r.x0) !active;
          List.iter
            (fun a ->
              let lo = Float.max a.y0 r.y0 and hi = Float.min a.y1 r.y1 in
              let shared_first = max (first_row a) (first_row r) in
              if hi > lo && shared_first = row then f a r)
            !active;
          active := r :: !active)
        sorted)
    buckets

let violations (d : Design.t) (pl : Placement.t) =
  let out = ref [] in
  let add v = out := v :: !out in
  let chip = d.chip in
  Array.iter
    (fun (c : Cell.t) ->
      if not (placed pl c.id) then add (Unplaced c.id)
      else begin
        let x = pl.xs.(c.id) and y = pl.ys.(c.id) in
        if not (Float.is_integer x) then add (Off_site c.id);
        if not (Float.is_integer y) then add (Off_row c.id);
        if
          x < 0.0
          || x +. float_of_int c.width > float_of_int chip.num_sites
          || y < 0.0
          || y +. float_of_int c.height > float_of_int chip.num_rows
        then add (Out_of_chip c.id)
        else if Float.is_integer y then
          match c.bottom_rail with
          | None -> ()
          | Some rail ->
            let row = int_of_float y in
            let row_rail =
              if row mod 2 = 0 then chip.base_rail
              else Rail.opposite chip.base_rail
            in
            if rail <> row_rail then add (Rail c.id)
      end)
    d.cells;
  iter_overlaps d pl (fun a b ->
      match (a.id >= 0, b.id >= 0) with
      | true, true -> add (Cell_overlap (min a.id b.id, max a.id b.id))
      | true, false -> add (Blockage_overlap (a.id, -b.id - 1))
      | false, true -> add (Blockage_overlap (b.id, -a.id - 1))
      | false, false -> ());
  List.rev !out

let overlapping_cells d pl =
  let hit = Array.make (Array.length d.Design.cells) false in
  iter_overlaps d pl (fun a b ->
      if a.id >= 0 && b.id >= 0 then begin
        hit.(a.id) <- true;
        hit.(b.id) <- true
      end);
  Array.fold_left (fun n h -> if h then n + 1 else n) 0 hit

let hpwl (d : Design.t) (pl : Placement.t) =
  let rh = d.chip.row_height in
  let total = ref 0.0 in
  for k = 0 to Netlist.num_nets d.nets - 1 do
    let pins = Netlist.net d.nets k in
    if Array.length pins > 0 then begin
      let xs = Array.map (fun (p : Netlist.pin) -> pl.xs.(p.cell) +. p.dx) pins
      and ys = Array.map (fun (p : Netlist.pin) -> pl.ys.(p.cell) +. p.dy) pins in
      let extent a =
        Array.fold_left Float.max neg_infinity a
        -. Array.fold_left Float.min infinity a
      in
      total := !total +. extent xs +. (rh *. extent ys)
    end
  done;
  !total

type displacement = { total : float; max : float }

let displacement (d : Design.t) ~(before : Placement.t) (after : Placement.t) =
  let rh = d.chip.row_height in
  let total = ref 0.0 and worst = ref 0.0 in
  Array.iter
    (fun (c : Cell.t) ->
      let i = c.id in
      let m =
        Float.abs (after.xs.(i) -. before.xs.(i))
        +. (rh *. Float.abs (after.ys.(i) -. before.ys.(i)))
      in
      total := !total +. m;
      worst := Float.max !worst m)
    d.cells;
  { total = !total; max = !worst }

let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
