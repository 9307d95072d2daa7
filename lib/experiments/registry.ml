type entry = {
  id : string;
  slug : string;
  paper_anchor : string;
  runner : unit -> Report.Table.t;
}

let all =
  [
    { id = "E1"; slug = "fig1"; paper_anchor = "Figure 1"; runner = Fig1.run };
    { id = "E2"; slug = "fig2"; paper_anchor = "Figure 2"; runner = Fig2.run };
    { id = "E3"; slug = "fig3"; paper_anchor = "Figure 3 / section 4"; runner = Fig3.run };
    { id = "E4"; slug = "fig4"; paper_anchor = "Figure 4"; runner = Fig4.run };
    { id = "E5"; slug = "fig5"; paper_anchor = "Figure 5 / section 5"; runner = Fig5.run };
    {
      id = "E6";
      slug = "kedge-sweep";
      paper_anchor = "section 3 tradeoff";
      runner = Kedge_sweep.run;
    };
    {
      id = "E7";
      slug = "strategy-compare";
      paper_anchor = "section 4 / Figure 3";
      runner = Strategy_compare.run;
    };
    {
      id = "E8";
      slug = "predecomp-sweep";
      paper_anchor = "section 4 timing dimension";
      runner = Predecomp_sweep.run;
    };
    {
      id = "E9";
      slug = "discard-ablation";
      paper_anchor = "section 5 implementation";
      runner = Discard_ablation.run;
    };
    {
      id = "E10";
      slug = "budget";
      paper_anchor = "section 2 budget variant";
      runner = Budget_exp.run;
    };
    {
      id = "E11";
      slug = "granularity";
      paper_anchor = "section 6 related-work comparison";
      runner = Granularity_exp.run;
    };
    {
      id = "E12";
      slug = "codecs";
      paper_anchor = "codec choice (implicit)";
      runner = Codecs_exp.run;
    };
    {
      id = "E13";
      slug = "predictor-ablation";
      paper_anchor = "section 4 prediction";
      runner = Predictor_ablation.run;
    };
    {
      id = "E14";
      slug = "adaptive-k";
      paper_anchor = "extension of the section 3 tradeoff";
      runner = Adaptive_exp.run;
    };
    {
      id = "E15";
      slug = "coresidence";
      paper_anchor = "extension of the section 1 motivation";
      runner = Coresidence.run;
    };
    {
      id = "E16";
      slug = "validation";
      paper_anchor = "model vs. executable runtime";
      runner = Validation.run;
    };
    {
      id = "E17";
      slug = "retention-compare";
      paper_anchor = "extension: residency policies beyond section 3";
      runner = Retention_compare.run;
    };
    {
      id = "E18";
      slug = "energy-pareto";
      paper_anchor = "extension: energy dimension of the section 3 tradeoff";
      runner = Energy_pareto.run;
    };
    {
      id = "E19";
      slug = "line-granularity";
      paper_anchor = "extension: hardware compressed-I-cache residency";
      runner = Line_granularity.run;
    };
    {
      id = "E20";
      slug = "corpus-robustness";
      paper_anchor = "extension: generated-program corpus";
      runner = Corpus_exp.run;
    };
    {
      id = "E21";
      slug = "multitask-contention";
      paper_anchor = "extension: preemptive multitasking";
      runner = Multitask_exp.run;
    };
  ]

let find key =
  let k = String.lowercase_ascii key in
  List.find_opt
    (fun e -> String.lowercase_ascii e.id = k || e.slug = k)
    all
